module Error = Mcd_robust.Error

let ( let* ) = Result.bind

(* --- pipelined connections ---------------------------------------------- *)

module Pipeline = struct
  (* Non-blocking socket + seq-tagged commands + the shared incremental
     frame decoder. Every command is one {!exchange}: its continuation
     is parked under the command's seq until the answering frame (or a
     transport failure) arrives. A request is a chain of three
     exchanges:

       submit --queued--> wait --terminal status--> result --payload--> k

     The server answers waits in completion order, so frames for
     different requests interleave arbitrarily; the seq tag routes each
     one. Callbacks fire inside {!pump}, on the caller's thread. *)

  type answer = (Protocol.Frames.frame, Error.t) result

  type t = {
    socket : string;
    fd : Unix.file_descr;
    frames : Protocol.Frames.t;
    out : Evloop.Outbuf.t;
    buf : Bytes.t;
    pending : (int, answer -> unit) Hashtbl.t;
    mutable next_seq : int;
    mutable failed : Error.t option;
    version : int;
    workers : int;
    queue_max : int;
  }

  let version t = t.version
  let workers t = t.workers
  let queue_max t = t.queue_max
  let fd t = t.fd
  let in_flight t = Hashtbl.length t.pending
  let has_output t = not (Evloop.Outbuf.is_empty t.out)

  (* Terminal transport/framing failure: every in-flight request is
     answered with the error, and the connection refuses further use. *)
  let fail t e =
    if t.failed = None then begin
      t.failed <- Some e;
      let ks = Hashtbl.fold (fun _ k acc -> k :: acc) t.pending [] in
      Hashtbl.reset t.pending;
      List.iter (fun k -> k (Result.Error e)) ks
    end;
    Result.Error e

  let transport_lost t =
    fail t
      (Error.Server_unavailable
         { socket = t.socket; message = "connection closed by server" })

  let connect ?max_payload ~socket () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        Result.Error
          (Error.Server_unavailable { socket; message = Unix.error_message e })
    | () -> (
        (* Consume the greeting with the same decoder the pipelined
           path uses — blocking reads until one frame lands. *)
        let frames = Protocol.Frames.create ?max_payload () in
        let buf = Bytes.create 65536 in
        let give_up e =
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          Result.Error e
        in
        let rec greeting () =
          match Protocol.Frames.next frames with
          | `Frame f -> Ok f
          | `Error reason ->
              Result.Error (Error.Protocol_violation { line = "<greeting>"; reason })
          | `Await -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 ->
                  Result.Error
                    (Error.Server_unavailable
                       { socket; message = "connection closed by server" })
              | n ->
                  Protocol.Frames.feed frames (Bytes.sub_string buf 0 n);
                  greeting ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> greeting ()
              | exception Unix.Unix_error (e, _, _) ->
                  Result.Error
                    (Error.Server_unavailable
                       { socket; message = Unix.error_message e }))
        in
        match greeting () with
        | Result.Error e -> give_up e
        | Ok { Protocol.Frames.reply = Protocol.Ready { version; workers; queue_max }; _ }
          ->
            if version <> Protocol.version then
              give_up
                (Error.Protocol_violation
                   {
                     line = Printf.sprintf "mcd-serve/%d" version;
                     reason =
                       Printf.sprintf "unsupported protocol version (want %d)"
                         Protocol.version;
                   })
            else begin
              Unix.set_nonblock fd;
              Ok
                {
                  socket;
                  fd;
                  frames;
                  out = Evloop.Outbuf.create ();
                  buf;
                  pending = Hashtbl.create 64;
                  next_seq = 1;
                  failed = None;
                  version;
                  workers;
                  queue_max;
                }
            end
        | Ok { Protocol.Frames.reply; _ } ->
            give_up
              (Error.Protocol_violation
                 {
                   line = Protocol.render_reply reply;
                   reason = "expected greeting";
                 }))

  (* Send one seq-tagged command; [k] fires once with its answering
     frame, or with the error once the connection has failed. *)
  let exchange t cmd ~k =
    match t.failed with
    | Some e -> k (Result.Error e)
    | None ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        Hashtbl.replace t.pending seq k;
        Evloop.Outbuf.add t.out (Protocol.render_command ~seq cmd ^ "\n")

  let protocol_violation t reply reason =
    fail t
      (Error.Protocol_violation { line = Protocol.render_reply reply; reason })

  (* A reply that is neither the expected one nor a rejection means the
     stream has desynchronized: the whole connection fails. *)
  let expect t ~k on_reply = function
    | Result.Error e -> k (Result.Error e)
    | Ok { Protocol.Frames.reply = Protocol.Rejected r; _ } ->
        k (Result.Error (Protocol.error_of_reject r))
    | Ok (f : Protocol.Frames.frame) -> (
        match on_reply f with
        | Some () -> ()
        | None ->
            k (protocol_violation t f.reply "reply does not match request phase"))

  let run ?(priority = Protocol.Normal) t request ~k =
    let fetch id =
      exchange t (Protocol.Result id)
        ~k:
          (expect t ~k (function
            | { reply = Protocol.Payload _; body; _ } ->
                Some (k (Ok (Option.value ~default:"" body)))
            | _ -> None))
    in
    (* wait parks until the job is terminal; result then carries the
       payload or the job's typed failure *)
    let await id =
      exchange t (Protocol.Wait id)
        ~k:
          (expect t ~k (function
            | { reply = Protocol.Status_reply _; _ } -> Some (fetch id)
            | _ -> None))
    in
    exchange t (Protocol.Submit { priority; request })
      ~k:
        (expect t ~k (function
          | { reply = Protocol.Queued_reply { id; _ }; _ } -> Some (await id)
          | _ -> None))

  (* One decoded frame: route by seq to its exchange. A peer that does
     not tag replies (seq tags are optional in protocol v1) is answered
     in order, which is unambiguous while one command is in flight. *)
  let dispatch t (f : Protocol.Frames.frame) =
    let seq =
      match f.seq with
      | Some _ as seq -> seq
      | None when Hashtbl.length t.pending = 1 ->
          Hashtbl.fold (fun seq _ _ -> Some seq) t.pending None
      | None -> None
    in
    match seq with
    | None -> ignore (protocol_violation t f.reply "unsolicited reply (no seq)")
    | Some seq -> (
        match Hashtbl.find_opt t.pending seq with
        | None -> ignore (protocol_violation t f.reply "reply for unknown seq")
        | Some k ->
            Hashtbl.remove t.pending seq;
            k (Ok f))

  let rec drain_frames t =
    if t.failed <> None then ()
    else
      match Protocol.Frames.next t.frames with
      | `Await -> ()
      | `Error reason ->
          ignore
            (fail t (Error.Protocol_violation { line = "<stream>"; reason }))
      | `Frame f ->
          dispatch t f;
          drain_frames t

  let read_ready t =
    let rec go () =
      if t.failed <> None then ()
      else
        match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
        | 0 -> ignore (transport_lost t)
        | n ->
            Protocol.Frames.feed t.frames (Bytes.sub_string t.buf 0 n);
            drain_frames t;
            go ()
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (_, _, _) -> ignore (transport_lost t)
    in
    go ()

  let flush_out t =
    match Evloop.Outbuf.flush t.out t.fd with
    | `All | `Partial -> Ok ()
    | `Closed -> transport_lost t

  let pump ?(timeout_ms = 0) t =
    match t.failed with
    | Some e -> Result.Error e
    | None -> (
        match flush_out t with
        | Result.Error _ as e -> e
        | Ok () -> (
            match
              Evloop.wait_fd t.fd ~read:true ~write:(has_output t) ~timeout_ms
            with
            | None -> Ok ()
            | Some ev ->
                if ev.readable then read_ready t;
                (match t.failed with
                | Some e -> Result.Error e
                | None -> if ev.writable then flush_out t else Ok ())))

  let close t =
    (match t.failed with
    | Some _ -> ()
    | None ->
        Evloop.Outbuf.add t.out (Protocol.render_command Protocol.Quit ^ "\n");
        ignore (flush_out t);
        t.failed <-
          Some
            (Error.Server_unavailable
               { socket = t.socket; message = "connection closed locally" }));
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
end

(* --- blocking connections ------------------------------------------------ *)

(* A blocking connection is a pipeline driven one command at a time:
   send, then pump until that command's answer lands. *)
type t = Pipeline.t

let connect ~socket = Pipeline.connect ~socket ()
let close = Pipeline.close
let version = Pipeline.version
let workers = Pipeline.workers
let queue_max = Pipeline.queue_max

let roundtrip t cmd =
  let answer = ref None in
  Pipeline.exchange t cmd ~k:(fun a -> answer := Some a);
  let rec await () =
    match !answer with
    | Some a -> a
    | None -> (
        match Pipeline.pump ~timeout_ms:(-1) t with
        | Ok () -> await ()
        (* a failed pump has already answered every pending exchange *)
        | Result.Error e -> Option.value !answer ~default:(Result.Error e))
  in
  await ()

(* One exchange whose answer [expected] maps to a result; a rejection
   becomes its typed error, anything else a protocol violation. *)
let command t cmd ~what expected =
  let* f = roundtrip t cmd in
  match (f.Protocol.Frames.reply, expected f) with
  | _, Some v -> Ok v
  | Protocol.Rejected r, None -> Result.Error (Protocol.error_of_reject r)
  | reply, None ->
      Result.Error
        (Error.Protocol_violation
           { line = Protocol.render_reply reply; reason = "expected " ^ what })

let body (f : Protocol.Frames.frame) = Option.value f.body ~default:""

let ping t =
  command t Protocol.Ping ~what:"pong" (function
    | { reply = Protocol.Pong; _ } -> Some ()
    | _ -> None)

type ticket = { id : int; digest : string; coalesced : bool }

let submit ?(priority = Protocol.Normal) t request =
  command t (Protocol.Submit { priority; request }) ~what:"queued" (function
    | { reply = Protocol.Queued_reply { id; digest; coalesced }; _ } ->
        Some { id; digest; coalesced }
    | _ -> None)

let state_of ~verb t cmd =
  command t cmd ~what:("status for " ^ verb) (function
    | { reply = Protocol.Status_reply { state; _ }; _ } -> Some state
    | _ -> None)

let status t id = state_of ~verb:"status" t (Protocol.Status id)
let wait t id = state_of ~verb:"wait" t (Protocol.Wait id)

let result t id =
  command t (Protocol.Result id) ~what:"payload" (function
    | { reply = Protocol.Payload _; _ } as f -> Some (body f)
    | _ -> None)

let run ?priority t request =
  let* ticket = submit ?priority t request in
  (* wait parks until the job is terminal; result then carries either
     the payload or the job's typed failure ([Job_failed], or
     [Deadline] for a watchdog kill) *)
  let* (_ : Protocol.state) = wait t ticket.id in
  result t ticket.id

let stats t =
  command t Protocol.Stats ~what:"stats-payload" (function
    | { reply = Protocol.Stats_payload _; _ } as f -> Some (body f)
    | _ -> None)

let drain t =
  command t Protocol.Drain ~what:"draining" (function
    | { reply = Protocol.Draining_reply; _ } -> Some ()
    | _ -> None)

(* --- retry layer -------------------------------------------------------- *)

type retry_policy = {
  max_attempts : int;
  base_delay_ms : int;
  max_delay_ms : int;
  seed : int option;
  sleep : float -> unit;
}

let default_policy =
  {
    max_attempts = 8;
    base_delay_ms = 50;
    max_delay_ms = 5_000;
    seed = None;
    sleep = Unix.sleepf;
  }

(* With no explicit seed, each retry loop draws its own jitter stream —
   pid-mixed so a fleet of clients restarting against the same downed
   server spreads out instead of thundering in lockstep (a shared
   constant seed would synchronize exactly the schedules the jitter
   exists to desynchronize). *)
let auto_seed_counter = Atomic.make 0

let auto_seed () =
  (Unix.getpid () * 1_000_003) + Atomic.fetch_and_add auto_seed_counter 1

(* The retryable class is transient service states — the server is full,
   leaving, restarting, or gone — plus [Unknown_job], which a restarted
   server reports for a job that completed (and was compacted away)
   before the crash: resubmitting hits the content-addressed store and
   returns the same bytes. Everything else is a verdict about the
   request itself, and retrying would only repeat it. *)
let retryable : Error.t -> bool = function
  | Error.Overloaded _ | Error.Draining _ | Error.Server_unavailable _
  | Error.Unknown_job _ ->
      true
  | _ -> false

let retry_after_hint : Error.t -> int option = function
  | Error.Overloaded { retry_after_ms; _ } -> Some retry_after_ms
  | _ -> None

(* Capped exponential backoff with full jitter: attempt [k] sleeps a
   uniform draw from [0, min (base * 2^k) cap], floored at the server's
   retry-after hint when one was given. Deterministic per explicit
   [seed] (the chaos harness replays byte-identical schedules). *)
let backoff_ms policy rng ~attempt ~hint =
  let expo =
    let rec go k acc =
      if k <= 0 || acc >= policy.max_delay_ms then acc else go (k - 1) (acc * 2)
    in
    go attempt policy.base_delay_ms
  in
  let ceiling = min policy.max_delay_ms expo in
  let jittered = Mcd_util.Rng.int rng (max 1 ceiling) in
  match hint with
  | None -> jittered
  | Some h -> max jittered (min policy.max_delay_ms h)

(* A job-level rejection ([Overloaded], [Draining], [Unknown_job])
   arrives on a healthy connection — the framing is intact, only the
   verdict was transient — so the retry reuses the connection instead
   of paying connect + greeting again. Only transport failures
   ([Server_unavailable]: refused connect, severed socket) force a
   reconnect; anything else that smells of desync ([Protocol_violation])
   is terminal and never retried. *)
let run_with_retry ?priority ?(policy = default_policy) ~socket request =
  let rng =
    Mcd_util.Rng.create
      (match policy.seed with Some s -> s | None -> auto_seed ())
  in
  let conn = ref None in
  let drop () =
    match !conn with
    | None -> ()
    | Some t ->
        conn := None;
        close t
  in
  let attempt_once () =
    match !conn with
    | Some t -> run ?priority t request
    | None -> (
        match connect ~socket with
        | Result.Error e -> Result.Error e
        | Ok t ->
            conn := Some t;
            run ?priority t request)
  in
  let rec go attempt =
    match attempt_once () with
    | Ok payload ->
        drop ();
        Ok payload
    | Result.Error e when retryable e && attempt + 1 < policy.max_attempts ->
        (match e with Error.Server_unavailable _ -> drop () | _ -> ());
        let ms = backoff_ms policy rng ~attempt ~hint:(retry_after_hint e) in
        policy.sleep (float_of_int ms /. 1000.0);
        go (attempt + 1)
    | Result.Error _ as e ->
        drop ();
        e
  in
  go 0

