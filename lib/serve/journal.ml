module Error = Mcd_robust.Error

type entry = {
  id : int;
  client : string;
  priority : Protocol.priority;
  digest : string;
  request : Protocol.request;
}

type recovery = {
  replay : entry list;
  completed : int;
  failed : int;
  next_id : int;
  torn : bool;
  corrupt : Mcd_robust.Error.t option;
}

type t = {
  path : string;
  fsync : bool;
  mutex : Mutex.t;
  mutable fd : Unix.file_descr option;
  mutable admitted : int;
  mutable finished : int;
  replayed : int;
  recovered_torn : int;
  recovered_corrupt : int;
}

let path t = t.path

(* --- record bodies ------------------------------------------------------ *)

let ( let* ) = Result.bind

let kv = Protocol.kv
let kvi = Protocol.kvi

(* The submit command's tokens, with the job's id, client and digest
   spliced in: id client pri digest workload policy context slowdown. *)
let render_entry (e : entry) =
  String.concat " "
    (kvi "id" e.id :: kv "client" e.client
    :: kv "pri" (Protocol.priority_name e.priority)
    :: kv "digest" e.digest
    :: Protocol.request_tokens e.request)

let parse_entry line =
  let fs = Protocol.fields (Protocol.split line) in
  let* id = Protocol.int_field "id" fs in
  let* client = Protocol.field "client" fs in
  let* digest = Protocol.field "digest" fs in
  let* priority, request = Protocol.submit_of_fields fs in
  Ok { id; client; priority; digest; request }

(* --- record framing ----------------------------------------------------- *)

let render_record kind body =
  Printf.sprintf "rec %s bytes=%d\n%send\n" kind (String.length body) body

type raw = { kind : string; body : string }

let parse_header line =
  match String.split_on_char ' ' line with
  | [ "rec"; kind; bytes ] -> (
      match String.split_on_char '=' bytes with
      | [ "bytes"; v ] -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> Ok (kind, n)
          | _ -> Result.Error (Printf.sprintf "bad record size %S" v))
      | _ -> Result.Error (Printf.sprintf "bad record header %S" line))
  | _ -> Result.Error (Printf.sprintf "bad record header %S" line)

(* Scan the raw log. The good prefix always wins: an incomplete record
   at the tail is a torn append (expected across a crash — dropped
   silently into [torn]); a complete-but-unparseable record is
   corruption (everything after it is dropped, reported typed). *)
let parse_records content =
  let n = String.length content in
  let rec go i acc =
    if i >= n then (List.rev acc, false, None)
    else
      match String.index_from_opt content i '\n' with
      | None -> (List.rev acc, true, None)
      | Some e -> (
          let header = String.sub content i (e - i) in
          match parse_header header with
          | Result.Error reason -> (List.rev acc, false, Some reason)
          | Ok (kind, len) ->
              let start = e + 1 in
              if start + len + 4 > n then (List.rev acc, true, None)
              else if String.sub content (start + len) 4 <> "end\n" then
                (List.rev acc, false, Some "missing end marker")
              else
                go (start + len + 4)
                  ({ kind; body = String.sub content start len } :: acc))
  in
  go 0 []

(* A record body is one newline-terminated line. *)
let body_line body =
  match String.index_opt body '\n' with
  | Some i when i = String.length body - 1 -> Ok (String.sub body 0 i)
  | _ -> Result.Error "record body is not one line"

let id_of_body body =
  let* line = body_line body in
  Protocol.int_field "id" (Protocol.fields (Protocol.split line))

(* --- recovery ----------------------------------------------------------- *)

let recover_content ~path content =
  let raws, torn, corrupt_reason = parse_records content in
  let admits = ref [] in
  let terminal = Hashtbl.create 16 in
  let completed = ref 0 and failed = ref 0 in
  let id_floor = ref 1 in
  let bad = ref None in
  let note_bad reason = if !bad = None then bad := Some reason in
  List.iter
    (fun { kind; body } ->
      match kind with
      | "admit" -> (
          match
            let* line = body_line body in
            parse_entry line
          with
          | Ok e ->
              if not (List.exists (fun x -> x.id = e.id) !admits) then
                admits := e :: !admits
          | Result.Error reason -> note_bad reason)
      | "done" -> (
          match id_of_body body with
          | Ok id ->
              if not (Hashtbl.mem terminal id) then begin
                Hashtbl.replace terminal id ();
                incr completed
              end
          | Result.Error reason -> note_bad reason)
      | "fail" -> (
          match id_of_body body with
          | Ok id ->
              if not (Hashtbl.mem terminal id) then begin
                Hashtbl.replace terminal id ();
                incr failed
              end
          | Result.Error reason -> note_bad reason)
      | "next" -> (
          (* compaction drops completed admits, so the high-water id is
             carried explicitly: without it a restart after a fully-
             drained session would hand out ids its clients already hold *)
          match id_of_body body with
          | Ok id -> id_floor := max !id_floor id
          | Result.Error reason -> note_bad reason)
      | kind -> note_bad (Printf.sprintf "unknown record kind %S" kind))
    raws;
  let admits = List.rev !admits in
  let next_id =
    List.fold_left (fun acc (e : entry) -> max acc (e.id + 1)) !id_floor admits
  in
  let corrupt =
    match (corrupt_reason, !bad) with
    | Some reason, _ | None, Some reason ->
        Some (Error.Journal_corrupt { path; reason })
    | None, None -> None
  in
  {
    replay = List.filter (fun e -> not (Hashtbl.mem terminal e.id)) admits;
    completed = !completed;
    failed = !failed;
    next_id;
    torn;
    corrupt;
  }

(* --- appends ------------------------------------------------------------ *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let append t kind body =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match t.fd with
      | None -> ()
      | Some fd -> (
          match
            write_all fd (render_record kind (body ^ "\n"));
            if t.fsync && kind = "admit" then Unix.fsync fd
          with
          | () ->
              if kind = "admit" then t.admitted <- t.admitted + 1
              else t.finished <- t.finished + 1
          | exception Unix.Unix_error (e, _, _) ->
              (* an unwritable journal degrades to journal-less serving
                 (replay protection lost, answers still correct), the
                 same never-fail-the-run posture as the result store *)
              Printf.eprintf "mcd-dvfs: %s\n%!"
                (Error.to_string
                   (Error.Io_error
                      { path = t.path; message = Unix.error_message e }));
              (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
              t.fd <- None))

let admit t entry = append t "admit" (render_entry entry)
let mark_done t ~id = append t "done" (kvi "id" id)

let mark_failed t ~id ~msg =
  append t "fail" (String.concat " " [ kvi "id" id; kv "msg" msg ])

(* --- open / compact ----------------------------------------------------- *)

let open_journal ?(fsync = true) ~path () =
  let io message = Result.Error (Error.Io_error { path; message }) in
  let* content =
    if Sys.file_exists path then
      match Mcd_util.Fs.read_file path with
      | c -> Ok c
      | exception Sys_error message -> io message
    else Ok ""
  in
  let recovery = recover_content ~path content in
  (* Compact: the surviving state is the incomplete admits plus the
     high-water id (a [next] record — completed admits are dropped, so
     their ids must not be reissued), rewritten atomically by
     Fs.write_atomic, the tmp+rename Cache.Store also writes with — and
     appended to from there. *)
  let compacted =
    String.concat ""
      (render_record "next" (kvi "id" recovery.next_id ^ "\n")
      :: List.map
           (fun e -> render_record "admit" (render_entry e ^ "\n"))
           recovery.replay)
  in
  match Mcd_util.Fs.write_atomic path compacted with
  | Result.Error message -> io message
  | Ok () -> (
      match Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 with
      | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e)
      | fd ->
          if fsync then (try Unix.fsync fd with Unix.Unix_error (_, _, _) -> ());
          Ok
            ( {
                path;
                fsync;
                mutex = Mutex.create ();
                fd = Some fd;
                admitted = 0;
                finished = 0;
                replayed = List.length recovery.replay;
                recovered_torn = (if recovery.torn then 1 else 0);
                recovered_corrupt = (if recovery.corrupt <> None then 1 else 0);
              },
              recovery ))

type stats = {
  admitted : int;
  finished : int;
  replayed : int;
  recovered_torn : int;
  recovered_corrupt : int;
}

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      admitted = t.admitted;
      finished = t.finished;
      replayed = t.replayed;
      recovered_torn = t.recovered_torn;
      recovered_corrupt = t.recovered_corrupt;
    }
  in
  Mutex.unlock t.mutex;
  s

let close t =
  Mutex.lock t.mutex;
  (match t.fd with
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
  | None -> ());
  Mutex.unlock t.mutex
