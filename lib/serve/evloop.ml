type interest = { fd : Unix.file_descr; read : bool; write : bool }
type event = { fd : Unix.file_descr; readable : bool; writable : bool }

(* Parallel arrays in, revents bits out. Bit 0 = read, bit 1 = write.
   Returns ready count, -1 on EINTR, -2 on other errors. *)
external poll_raw :
  Unix.file_descr array -> int array -> int array -> int -> int
  = "mcd_serve_poll"

let wait interests ~timeout_ms =
  let n = List.length interests in
  let fds = Array.make n Unix.stdin in
  let events = Array.make n 0 in
  let revents = Array.make n 0 in
  List.iteri
    (fun i { fd; read; write } ->
      fds.(i) <- fd;
      events.(i) <- (if read then 1 else 0) lor (if write then 2 else 0))
    interests;
  match poll_raw fds events revents timeout_ms with
  | 0 | -1 -> []
  | -2 ->
      (* poll itself failed (e.g. EBADF somewhere in the set, which
         poll reports per-fd but a broken runtime state might not).
         Report everything ready: the caller's read/write paths hit the
         bad descriptor's error and close it, healing the set. *)
      List.map (fun { fd; read; write } -> { fd; readable = read; writable = write })
        interests
  | _ ->
      let ready = ref [] in
      for i = n - 1 downto 0 do
        if revents.(i) land events.(i) <> 0 then
          ready :=
            {
              fd = fds.(i);
              readable = revents.(i) land events.(i) land 1 <> 0;
              writable = revents.(i) land events.(i) land 2 <> 0;
            }
            :: !ready
      done;
      !ready

let wait_fd fd ~read ~write ~timeout_ms =
  match wait [ { fd; read; write } ] ~timeout_ms with
  | [] -> None
  | ev :: _ -> Some ev

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

module Outbuf = struct
  type t = {
    q : string Queue.t;
    mutable head_off : int;  (** bytes of [Queue.peek q] already written *)
    mutable len : int;  (** total unwritten bytes *)
  }

  let create () = { q = Queue.create (); head_off = 0; len = 0 }

  let add t s =
    if String.length s > 0 then begin
      Queue.push s t.q;
      t.len <- t.len + String.length s
    end

  let length t = t.len
  let is_empty t = t.len = 0

  let flush t fd =
    let rec go () =
      match Queue.peek_opt t.q with
      | None -> `All
      | Some head -> (
          let remaining = String.length head - t.head_off in
          match Unix.write_substring fd head t.head_off remaining with
          | written ->
              t.len <- t.len - written;
              if written = remaining then begin
                ignore (Queue.pop t.q);
                t.head_off <- 0;
                go ()
              end
              else begin
                t.head_off <- t.head_off + written;
                `Partial
              end
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              `Partial
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (_, _, _) -> `Closed)
    in
    go ()
end
