(** The mcd-serve wire protocol.

    A versioned line protocol over a Unix-domain stream socket. Both
    directions speak single-line messages of space-separated tokens: a
    leading verb, then [key=value] pairs. Values are percent-encoded
    (space, ['%'], newline), so workload names like ["adpcm decode"]
    travel as one token. Replies that carry a payload (a run result, a
    metrics dump) send a header line announcing the byte count, then
    exactly that many raw bytes, then an ["end\n"] trailer — the same
    framing discipline as {!Mcd_cache.Store} objects, so truncation is
    always detectable.

    The grammar (version 1):
    {v
    greeting  ::= "mcd-serve/1 ready workers=N queue-max=N"
    command   ::= "ping" | "stats" | "drain" | "quit"
                | "submit pri=P workload=W policy=L context=C slowdown=F"
                | "status id=N" | "wait id=N" | "result id=N"
    reply     ::= "pong" | "draining"
                | "queued id=N digest=H coalesced=B"
                | "status id=N state=S [msg=M]"
                | "payload id=N bytes=N"   (then payload, then "end\n")
                | "stats-payload bytes=N"  (then payload, then "end\n")
                | "error code=E ..."
    v}

    {b Pipelined framing.} Any command may additionally carry a
    [seq=N] token (rendered straight after the verb); the reply that
    answers it echoes the same [seq] — including a [wait] answer that
    the server defers until the job turns terminal. A client may
    therefore keep any number of commands in flight on one connection
    and match replies by seq regardless of arrival order; commands
    without [seq] keep the strict request/reply ordering a one-shot
    client expects. Both are version-1 grammar: unknown [key=value]
    tokens were always ignored, so a seq-free peer interoperates.

    This module is pure — parsing and rendering only, no I/O — so both
    endpoints and the test suite share one grammar definition. *)

val version : int
(** 1. Bump on any incompatible grammar change; the greeting carries it
    and {!Client.connect} refuses a mismatch. *)

(** {2 Requests} *)

type priority = High | Normal | Low

val priority_name : priority -> string
val priority_of_name : string -> priority option

val priority_level : priority -> int
(** 0 for [High] through 2 for [Low] — the job-queue level. *)

type policy = Baseline | Offline | Online | Profile

val policies : policy list
(** Every wire policy. *)

val policy_name : policy -> string
(** The wire label, which the server parses with
    {!Mcd_experiments.Runner.method_of_label}. *)

val policy_of_name : string -> policy option

type request = {
  workload : string;  (** Table-2 benchmark name, e.g. ["adpcm decode"] *)
  policy : policy;
  context : string;  (** calling-context name, e.g. ["L+F"] *)
  slowdown_pct : float;
}

val request :
  ?policy:policy -> ?context:string -> ?slowdown_pct:float -> string -> request
(** A request for the named workload; defaults [Profile], ["L+F"], the
    paper's 7% operating point. *)

(** {2 Messages} *)

type command =
  | Ping
  | Submit of { priority : priority; request : request }
  | Status of int
  | Wait of int  (** reply is deferred until the job is terminal *)
  | Result of int
  | Stats
  | Drain
  | Quit

type state = Queued | Running | Done | Failed of string

val state_name : state -> string

type reject =
  | Overloaded of { queue_depth : int; limit : int; retry_after_ms : int }
      (** admission control: back off [retry_after_ms] and retry *)
  | Draining
  | Bad_request of string
  | Unknown_job of int
  | Job_failed of { id : int; message : string }
  | Deadline of { id : int; deadline_ms : int }
      (** the job's compute outran the server's per-job deadline; the
          job failed typed and the result (if the worker ever finishes)
          is discarded *)
  | Not_done of int

type reply =
  | Ready of { version : int; workers : int; queue_max : int }
  | Pong
  | Queued_reply of { id : int; digest : string; coalesced : bool }
  | Status_reply of { id : int; state : state }
  | Payload of { id : int; bytes : int }
  | Stats_payload of { bytes : int }
  | Draining_reply
  | Rejected of reject

val render_command : ?seq:int -> command -> string
(** Without the trailing newline. [seq] tags the command for pipelined
    correlation; the answering reply echoes it. *)

val parse_command : string -> (command * int option, string) result
(** The command plus its [seq] tag, when the sender attached one. *)

val render_reply : ?seq:int -> reply -> string
val parse_reply : string -> (reply * int option, string) result

val error_of_reject : reject -> Mcd_robust.Error.t
(** The typed diagnostic a rejection maps to — [Overloaded] and
    [Draining] carry exit code 4, the rest follow the usual
    validation/runtime classes. *)

(** {2 Incremental reply framing}

    The receive half of a pipelined connection: feed raw socket bytes
    in whatever chunks the kernel delivers, take complete frames out.
    A frame is a reply line plus — for [Payload]/[Stats_payload]
    headers — its byte-counted body, with the ["end\n"] trailer
    verified and stripped. Both endpoints' wire reading and the qcheck
    chunking tests share this one decoder. *)
module Frames : sig
  type frame = {
    reply : reply;
    seq : int option;
    body : string option;  (** payload bytes, for payload-carrying replies *)
  }

  type t

  val default_max_payload : int
  (** 64 MiB. *)

  val create : ?max_payload:int -> unit -> t
  (** A payload header announcing more than [max_payload] bytes is a
      decode error — the frame is refused before any body is
      buffered, so a rogue header cannot balloon memory. *)

  val feed : t -> string -> unit
  (** Append a chunk of received bytes. Chunk boundaries are
      arbitrary: mid-token, mid-body, anywhere. *)

  val next : t -> [ `Frame of frame | `Await | `Error of string ]
  (** The next complete frame, [`Await] when more bytes are needed.
      [`Error] is terminal — framing has desynchronized (unparseable
      line, bad trailer, oversized payload) and the connection must be
      closed; every later [next] repeats the error. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by [next]. *)
end

(** {2 Token-grammar helpers}

    The [key=value] token vocabulary, shared with {!Journal} so the
    job journal's record bodies speak the same escaped grammar as the
    wire. *)

val kv : string -> string -> string
(** [kv k v] is the token [k=v], [v] percent-encoded
    ({!Mcd_cache.Key.encode_value}). *)

val kvi : string -> int -> string
(** [kvi k n] is the token [k=n]. *)

val request_tokens : request -> string list
(** The submit command's [workload], [policy], [context] and [slowdown]
    tokens, in wire order. *)

val submit_of_fields :
  (string * string) list -> (priority * request, string) result
(** Parse the submit command's [pri] and {!request_tokens} fields. *)

val split : string -> string list
(** Tokens of a line (runs of spaces collapse). *)

val fields : string list -> (string * string) list
(** The [key=value] tokens; unknown keys are the caller's to ignore,
    duplicates keep the first occurrence. *)

val field : string -> (string * string) list -> (string, string) result
val int_field : string -> (string * string) list -> (int, string) result
val float_field : string -> (string * string) list -> (float, string) result
