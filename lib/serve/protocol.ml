module Error = Mcd_robust.Error

let version = 1

(* --- token encoding ---------------------------------------------------- *)

(* Tokens are space-separated, messages newline-terminated, so values
   percent-encode exactly those two characters plus '%' itself — the
   escaping of canonical key lines, Mcd_cache.Key.encode_value, which
   [kv] renders with and this inverts. *)
let decode_value v =
  if not (String.contains v '%') then Ok v
  else begin
    let n = String.length v in
    let buf = Buffer.create n in
    let rec go i =
      if i >= n then Ok (Buffer.contents buf)
      else if v.[i] <> '%' then begin
        Buffer.add_char buf v.[i];
        go (i + 1)
      end
      else if i + 2 >= n then Error (Printf.sprintf "truncated escape in %S" v)
      else
        match String.sub v (i + 1) 2 with
        | "20" -> Buffer.add_char buf ' '; go (i + 3)
        | "25" -> Buffer.add_char buf '%'; go (i + 3)
        | "0a" -> Buffer.add_char buf '\n'; go (i + 3)
        | esc -> Error (Printf.sprintf "bad escape %%%s in %S" esc v)
    in
    go 0
  end

(* --- request vocabulary ------------------------------------------------ *)

type priority = High | Normal | Low

let priority_name = function High -> "high" | Normal -> "normal" | Low -> "low"

let priority_of_name = function
  | "high" -> Some High
  | "normal" -> Some Normal
  | "low" -> Some Low
  | _ -> None

let priority_level = function High -> 0 | Normal -> 1 | Low -> 2

type policy = Baseline | Offline | Online | Profile

let policy_name = function
  | Baseline -> "baseline"
  | Offline -> "offline"
  | Online -> "online"
  | Profile -> "profile"

let policies = [ Baseline; Offline; Online; Profile ]
let policy_of_name s = List.find_opt (fun p -> policy_name p = s) policies

type request = {
  workload : string;
  policy : policy;
  context : string;
  slowdown_pct : float;
}

let request ?(policy = Profile) ?(context = "L+F") ?(slowdown_pct = 7.0)
    workload =
  { workload; policy; context; slowdown_pct }

(* --- messages ---------------------------------------------------------- *)

type command =
  | Ping
  | Submit of { priority : priority; request : request }
  | Status of int
  | Wait of int
  | Result of int
  | Stats
  | Drain
  | Quit

type state = Queued | Running | Done | Failed of string

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"

type reject =
  | Overloaded of { queue_depth : int; limit : int; retry_after_ms : int }
  | Draining
  | Bad_request of string
  | Unknown_job of int
  | Job_failed of { id : int; message : string }
  | Deadline of { id : int; deadline_ms : int }
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

(* --- rendering --------------------------------------------------------- *)

let kv k v = Printf.sprintf "%s=%s" k (Mcd_cache.Key.encode_value v)
let kvi k v = Printf.sprintf "%s=%d" k v

(* The seq token rides immediately after the verb. It is optional on
   the wire (a one-shot client never sends one) and opaque to the
   server, which echoes it verbatim on whichever reply answers the
   command — the correlation a pipelined client matches on. *)
let with_seq seq line =
  match seq with
  | None -> line
  | Some s -> (
      match String.index_opt line ' ' with
      | None -> line ^ " " ^ kvi "seq" s
      | Some i ->
          String.concat ""
            [
              String.sub line 0 i; " "; kvi "seq" s;
              String.sub line i (String.length line - i);
            ])

let request_tokens r =
  [
    kv "workload" r.workload;
    kv "policy" (policy_name r.policy);
    kv "context" r.context;
    kv "slowdown" (Mcd_cache.Key.float_param r.slowdown_pct);
  ]

let render_command_body = function
  | Ping -> "ping"
  | Submit { priority; request } ->
      String.concat " "
        ("submit" :: kv "pri" (priority_name priority) :: request_tokens request)
  | Status id -> "status " ^ kvi "id" id
  | Wait id -> "wait " ^ kvi "id" id
  | Result id -> "result " ^ kvi "id" id
  | Stats -> "stats"
  | Drain -> "drain"
  | Quit -> "quit"

let render_command ?seq cmd = with_seq seq (render_command_body cmd)

let render_reply_body = function
  | Ready { version; workers; queue_max } ->
      Printf.sprintf "mcd-serve/%d ready %s %s" version
        (kvi "workers" workers)
        (kvi "queue-max" queue_max)
  | Pong -> "pong"
  | Queued_reply { id; digest; coalesced } ->
      String.concat " "
        [
          "queued"; kvi "id" id; kv "digest" digest;
          kvi "coalesced" (if coalesced then 1 else 0);
        ]
  | Status_reply { id; state } -> (
      let base =
        String.concat " " [ "status"; kvi "id" id; kv "state" (state_name state) ]
      in
      match state with
      | Failed message -> base ^ " " ^ kv "msg" message
      | Queued | Running | Done -> base)
  | Payload { id; bytes } -> String.concat " " [ "payload"; kvi "id" id; kvi "bytes" bytes ]
  | Stats_payload { bytes } -> "stats-payload " ^ kvi "bytes" bytes
  | Draining_reply -> "draining"
  | Rejected reject -> (
      match reject with
      | Overloaded { queue_depth; limit; retry_after_ms } ->
          String.concat " "
            [
              "error"; kv "code" "overloaded"; kvi "depth" queue_depth;
              kvi "limit" limit; kvi "retry-after-ms" retry_after_ms;
            ]
      | Draining -> "error code=draining"
      | Bad_request msg ->
          String.concat " " [ "error"; kv "code" "bad-request"; kv "msg" msg ]
      | Unknown_job id ->
          String.concat " " [ "error"; kv "code" "unknown-job"; kvi "id" id ]
      | Job_failed { id; message } ->
          String.concat " "
            [ "error"; kv "code" "failed"; kvi "id" id; kv "msg" message ]
      | Deadline { id; deadline_ms } ->
          String.concat " "
            [
              "error"; kv "code" "deadline"; kvi "id" id;
              kvi "deadline-ms" deadline_ms;
            ]
      | Not_done id ->
          String.concat " " [ "error"; kv "code" "not-done"; kvi "id" id ])

let render_reply ?seq reply = with_seq seq (render_reply_body reply)

(* --- parsing ----------------------------------------------------------- *)

let ( let* ) = Result.bind

(* Tokenize a line into its verb and key=value fields. Unknown keys are
   ignored (forward compatibility within a protocol version); duplicate
   keys keep the first occurrence. *)
let fields tokens =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> None
      | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) ))
    tokens

let field key fs =
  match List.assoc_opt key fs with
  | Some v -> decode_value v
  | None -> Error (Printf.sprintf "missing %s field" key)

let int_field key fs =
  let* v = field key fs in
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad %s value %S" key v)

let float_field key fs =
  let* v = field key fs in
  match float_of_string_opt v with
  | Some f when Float.is_finite f -> Ok f
  | _ -> Error (Printf.sprintf "bad %s value %S" key v)

let split line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let seq_field fs =
  match List.assoc_opt "seq" fs with
  | None -> Ok None
  | Some _ ->
      let* s = int_field "seq" fs in
      Ok (Some s)

let submit_of_fields fs =
  let* pri = field "pri" fs in
  let* priority =
    match priority_of_name pri with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown priority %S" pri)
  in
  let* workload = field "workload" fs in
  let* pol = field "policy" fs in
  let* policy =
    match policy_of_name pol with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown policy %S" pol)
  in
  let* context = field "context" fs in
  let* slowdown_pct = float_field "slowdown" fs in
  Ok (priority, { workload; policy; context; slowdown_pct })

let parse_command line =
  match split line with
  | [] -> Error "empty command"
  | verb :: rest -> (
      let fs = fields rest in
      let* seq = seq_field fs in
      let ok cmd = Ok (cmd, seq) in
      match verb with
      | "ping" -> ok Ping
      | "stats" -> ok Stats
      | "drain" -> ok Drain
      | "quit" -> ok Quit
      | "status" ->
          let* id = int_field "id" fs in
          ok (Status id)
      | "wait" ->
          let* id = int_field "id" fs in
          ok (Wait id)
      | "result" ->
          let* id = int_field "id" fs in
          ok (Result id)
      | "submit" ->
          let* priority, request = submit_of_fields fs in
          ok (Submit { priority; request })
      | verb -> Error (Printf.sprintf "unknown command %S" verb))

let parse_state fs =
  let* s = field "state" fs in
  match s with
  | "queued" -> Ok Queued
  | "running" -> Ok Running
  | "done" -> Ok Done
  | "failed" ->
      let* msg = field "msg" fs in
      Ok (Failed msg)
  | s -> Error (Printf.sprintf "unknown state %S" s)

let parse_reply line =
  match split line with
  | [] -> Error "empty reply"
  | verb :: rest -> (
      let fs = fields rest in
      let* seq = seq_field fs in
      let ok reply = Ok (reply, seq) in
      match verb with
      | "pong" -> ok Pong
      | "draining" -> ok Draining_reply
      | "queued" ->
          let* id = int_field "id" fs in
          let* digest = field "digest" fs in
          let* coalesced = int_field "coalesced" fs in
          ok (Queued_reply { id; digest; coalesced = coalesced <> 0 })
      | "status" ->
          let* id = int_field "id" fs in
          let* state = parse_state fs in
          ok (Status_reply { id; state })
      | "payload" ->
          let* id = int_field "id" fs in
          let* bytes = int_field "bytes" fs in
          ok (Payload { id; bytes })
      | "stats-payload" ->
          let* bytes = int_field "bytes" fs in
          ok (Stats_payload { bytes })
      | "error" -> (
          let* code = field "code" fs in
          match code with
          | "overloaded" ->
              let* queue_depth = int_field "depth" fs in
              let* limit = int_field "limit" fs in
              let* retry_after_ms = int_field "retry-after-ms" fs in
              ok (Rejected (Overloaded { queue_depth; limit; retry_after_ms }))
          | "draining" -> ok (Rejected Draining)
          | "bad-request" ->
              let* msg = field "msg" fs in
              ok (Rejected (Bad_request msg))
          | "unknown-job" ->
              let* id = int_field "id" fs in
              ok (Rejected (Unknown_job id))
          | "failed" ->
              let* id = int_field "id" fs in
              let* message = field "msg" fs in
              ok (Rejected (Job_failed { id; message }))
          | "deadline" ->
              let* id = int_field "id" fs in
              let* deadline_ms = int_field "deadline-ms" fs in
              ok (Rejected (Deadline { id; deadline_ms }))
          | "not-done" ->
              let* id = int_field "id" fs in
              ok (Rejected (Not_done id))
          | code -> Error (Printf.sprintf "unknown error code %S" code))
      | verb -> (
          (* the greeting: "mcd-serve/<v> ready ..." *)
          match String.split_on_char '/' verb with
          | [ "mcd-serve"; v ] -> (
              (* key=value tokens (seq=, future extensions) may precede
                 the bare "ready" marker and are ignored, same as
                 unknown fields everywhere else in the grammar. *)
              match int_of_string_opt v with
              | Some version when List.mem "ready" rest ->
                  let* workers = int_field "workers" fs in
                  let* queue_max = int_field "queue-max" fs in
                  ok (Ready { version; workers; queue_max })
              | _ -> Error (Printf.sprintf "malformed greeting %S" line))
          | _ -> Error (Printf.sprintf "unknown reply %S" verb)))

(* --- incremental reply framing ----------------------------------------- *)

module Frames = struct
  type frame = { reply : reply; seq : int option; body : string option }

  (* [acc]/[off] form a consume-from-the-front buffer: [feed] appends,
     the decoder advances [off], and the consumed prefix is compacted
     away lazily (on the next append) so a long-lived connection never
     accumulates dead bytes. *)
  type t = {
    mutable acc : string;
    mutable off : int;
    mutable pending : (reply * int option * int) option;
        (** a payload header whose [bytes]-byte body (plus trailer) has
            not fully arrived yet *)
    mutable failed : string option;
    max_payload : int;
  }

  let default_max_payload = 64 * 1024 * 1024

  let create ?(max_payload = default_max_payload) () =
    { acc = ""; off = 0; pending = None; failed = None; max_payload }

  let feed t chunk =
    if String.length chunk > 0 then
      if t.off = 0 then t.acc <- t.acc ^ chunk
      else begin
        t.acc <-
          String.sub t.acc t.off (String.length t.acc - t.off) ^ chunk;
        t.off <- 0
      end

  let buffered t = String.length t.acc - t.off

  let trailer = "end\n"

  let fail t msg =
    t.failed <- Some msg;
    `Error msg

  (* A decode error is terminal: once framing desynchronizes there is
     no way to find the next frame boundary, so the connection must be
     torn down. *)
  let rec next t =
    match t.failed with
    | Some msg -> `Error msg
    | None -> (
        match t.pending with
        | Some (reply, seq, bytes) ->
            if buffered t < bytes + String.length trailer then `Await
            else begin
              let body = String.sub t.acc t.off bytes in
              let tl =
                String.sub t.acc (t.off + bytes) (String.length trailer)
              in
              if tl <> trailer then
                fail t
                  (Printf.sprintf "bad payload trailer %S (want %S)" tl
                     trailer)
              else begin
                t.off <- t.off + bytes + String.length trailer;
                t.pending <- None;
                `Frame { reply; seq; body = Some body }
              end
            end
        | None -> (
            match String.index_from_opt t.acc t.off '\n' with
            | None -> `Await
            | Some i -> (
                let line = String.sub t.acc t.off (i - t.off) in
                t.off <- i + 1;
                match parse_reply line with
                | Error reason ->
                    fail t (Printf.sprintf "%s (line %S)" reason line)
                | Ok ((Payload { bytes; _ } as reply), seq)
                | Ok ((Stats_payload { bytes } as reply), seq) ->
                    if bytes < 0 then
                      fail t (Printf.sprintf "negative payload size %d" bytes)
                    else if bytes > t.max_payload then
                      fail t
                        (Printf.sprintf
                           "payload of %d bytes exceeds the %d-byte cap"
                           bytes t.max_payload)
                    else begin
                      t.pending <- Some (reply, seq, bytes);
                      next t
                    end
                | Ok (reply, seq) -> `Frame { reply; seq; body = None })))
end

let error_of_reject = function
  | Overloaded { queue_depth; limit; retry_after_ms } ->
      Error.Overloaded { queue_depth; limit; retry_after_ms }
  | Draining -> Error.Draining { detail = "server shutting down" }
  | Bad_request msg ->
      Error.Protocol_violation { line = msg; reason = "rejected by server" }
  | Unknown_job id -> Error.Unknown_job { id }
  | Job_failed { id; message } ->
      Error.Runtime_fault
        { where = Printf.sprintf "job %d" id; detail = message }
  | Deadline { id; deadline_ms } -> Error.Deadline_exceeded { id; deadline_ms }
  | Not_done id ->
      Error.Protocol_violation
        { line = Printf.sprintf "id=%d" id; reason = "job not finished" }
