(** Readiness primitives for the serve event loop and pipelined client.

    A thin wrapper over [poll(2)]: unlike [Unix.select], it has no
    [FD_SETSIZE] (1024) ceiling, so a server holding thousands of
    pipelined connections keeps working. Timeouts are deadline-driven —
    the caller computes how long it may sleep and passes exactly that,
    [-1] meaning "until an event".

    [EINTR] (a signal landed) and timeouts both surface as an empty
    event list: the caller's loop re-evaluates its world either way.
    Any other poll-level failure degrades to reporting {e every}
    watched descriptor readable and writable, so the per-fd read/write
    paths discover the broken descriptor (EBADF) and close it, instead
    of the whole loop crashing. *)

type interest = {
  fd : Unix.file_descr;
  read : bool;
  write : bool;
}

type event = {
  fd : Unix.file_descr;
  readable : bool;
  writable : bool;
}

val wait : interest list -> timeout_ms:int -> event list
(** Block until at least one interest is ready, the timeout elapses, or
    a signal interrupts. [timeout_ms < 0] waits indefinitely; [0] polls.
    Returns only descriptors with at least one ready direction. *)

val wait_fd :
  Unix.file_descr -> read:bool -> write:bool -> timeout_ms:int -> event option
(** {!wait} specialised to one descriptor — the pipelined client's
    pump. *)

val now_s : unit -> float
(** Seconds on the monotonic clock (CLOCK_MONOTONIC); only differences
    mean anything. Every serve-plane deadline, grace period and latency
    is measured on it, so a wall-clock step can neither fail a job
    spuriously nor stretch a drain. *)

(** Per-connection output queue with partial-write bookkeeping.

    Replies are appended as whole frames (strings); [flush] writes as
    much as a non-blocking descriptor accepts and keeps the rest —
    frame bytes are never reordered or dropped, and a slow reader costs
    memory (bounded by the caller) instead of blocking the loop. *)
module Outbuf : sig
  type t

  val create : unit -> t
  val add : t -> string -> unit
  val length : t -> int
  (** Bytes not yet written. *)

  val is_empty : t -> bool

  val flush : t -> Unix.file_descr -> [ `All | `Partial | `Closed ]
  (** Write until empty, [EAGAIN], or peer loss. [`All]: everything
      went out. [`Partial]: the descriptor stopped accepting; retry on
      writability. [`Closed]: EPIPE/ECONNRESET/EBADF — the connection
      is gone. *)
end
