module Error = Mcd_robust.Error
module Metrics = Mcd_obs.Metrics

type t = {
  dir : string;
  metrics : Metrics.t;
  hits : Metrics.counter;
  misses : Metrics.counter;
  corrupt : Metrics.counter;
  stores : Metrics.counter;
  bytes_read : Metrics.counter;
  bytes_written : Metrics.counter;
  gc_removed : Metrics.counter;
  gc_freed_bytes : Metrics.counter;
  (* Metrics counters are plain accumulators; serialize updates so the
     store is safe under Par's multi-domain fan-out. *)
  mutex : Mutex.t;
}

let objects_dir t = Filename.concat t.dir "objects"

(* an unwritable cache degrades to recompute-only, never fails the run *)
let log_io_error ~path message =
  Printf.eprintf "mcd-dvfs: %s\n%!"
    (Error.to_string (Error.Io_error { path; message }))

let create ~dir =
  let metrics = Metrics.create () in
  let t =
    {
      dir;
      metrics;
      hits = Metrics.counter metrics "cache.hits";
      misses = Metrics.counter metrics "cache.misses";
      corrupt = Metrics.counter metrics "cache.corrupt";
      stores = Metrics.counter metrics "cache.stores";
      bytes_read = Metrics.counter metrics "cache.bytes_read";
      bytes_written = Metrics.counter metrics "cache.bytes_written";
      gc_removed = Metrics.counter metrics "cache.gc_removed";
      gc_freed_bytes = Metrics.counter metrics "cache.gc_freed_bytes";
      mutex = Mutex.create ();
    }
  in
  (try Mcd_util.Fs.mkdir_p (objects_dir t)
   with Sys_error message -> log_io_error ~path:(objects_dir t) message);
  t

let dir t = t.dir
let metrics t = t.metrics

let count t c =
  Mutex.lock t.mutex;
  Metrics.incr c;
  Mutex.unlock t.mutex

let count_bytes t c n =
  Mutex.lock t.mutex;
  Metrics.add c n;
  Mutex.unlock t.mutex

type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  stores : int;
  bytes_read : int;
  bytes_written : int;
  gc_removed : int;
  gc_freed_bytes : int;
}

let stats t : stats =
  Mutex.lock t.mutex;
  let s =
    {
      hits = Metrics.value t.hits;
      misses = Metrics.value t.misses;
      corrupt = Metrics.value t.corrupt;
      stores = Metrics.value t.stores;
      bytes_read = Metrics.value t.bytes_read;
      bytes_written = Metrics.value t.bytes_written;
      gc_removed = Metrics.value t.gc_removed;
      gc_freed_bytes = Metrics.value t.gc_freed_bytes;
    }
  in
  Mutex.unlock t.mutex;
  s

let object_path t key =
  let digest = Key.digest key in
  Filename.concat
    (Filename.concat (objects_dir t) (String.sub digest 0 2))
    (String.sub digest 2 (String.length digest - 2))

(* --- object container -------------------------------------------------- *)

(* mcd-dvfs-cache <format> <kind>
   key <canonical>
   payload-bytes <n>
   <n payload bytes>
   end
   The full canonical key is embedded so a digest collision (or a stale
   file from a different format) surfaces as corruption, never as a
   wrong answer; the byte count plus `end` trailer detects truncation. *)
let container key payload =
  Printf.sprintf "mcd-dvfs-cache %d %s\nkey %s\npayload-bytes %d\n%send\n"
    Key.format_version (Key.kind key) (Key.canonical key)
    (String.length payload) payload

let parse_container ~key content =
  let fail reason = Result.Error reason in
  let line_end from =
    match String.index_from_opt content from '\n' with
    | Some i -> Result.Ok i
    | None -> fail "truncated header"
  in
  let ( let* ) = Result.bind in
  let* e1 = line_end 0 in
  let header = String.sub content 0 e1 in
  let expected_header =
    Printf.sprintf "mcd-dvfs-cache %d %s" Key.format_version (Key.kind key)
  in
  if header <> expected_header then
    fail (Printf.sprintf "bad header %S" header)
  else
    let* e2 = line_end (e1 + 1) in
    let key_line = String.sub content (e1 + 1) (e2 - e1 - 1) in
    if key_line <> "key " ^ Key.canonical key then
      fail "key mismatch (digest collision or stale object)"
    else
      let* e3 = line_end (e2 + 1) in
      let bytes_line = String.sub content (e2 + 1) (e3 - e2 - 1) in
      let* n =
        match String.split_on_char ' ' bytes_line with
        | [ "payload-bytes"; v ] -> (
            match int_of_string_opt v with
            | Some n when n >= 0 -> Result.Ok n
            | _ -> fail (Printf.sprintf "bad payload size %S" v))
        | _ -> fail (Printf.sprintf "bad payload-bytes line %S" bytes_line)
      in
      let start = e3 + 1 in
      if String.length content <> start + n + 4 then fail "truncated payload"
      else if String.sub content (start + n) 4 <> "end\n" then
        fail "missing end marker"
      else Result.Ok (String.sub content start n)

let log_corrupt t ~path ~reason =
  count t t.corrupt;
  Printf.eprintf "mcd-dvfs: %s\n%!"
    (Error.to_string (Error.Cache_corrupt { path; reason }))

type lookup = Absent | Corrupt of string | Found of string

let read_object t key =
  let path = object_path t key in
  if not (Sys.file_exists path) then Absent
  else
    match Mcd_util.Fs.read_file path with
    | exception Sys_error reason -> Corrupt reason
    | content -> (
        match parse_container ~key content with
        | Result.Ok payload ->
            count_bytes t t.bytes_read (String.length payload);
            Found payload
        | Result.Error reason -> Corrupt reason)

let add t key payload =
  let path = object_path t key in
  match Mcd_util.Fs.write_atomic path (container key payload) with
  | Ok () ->
      count t t.stores;
      count_bytes t t.bytes_written (String.length payload)
  | Error message -> log_io_error ~path message

let find t key =
  match read_object t key with
  | Found payload ->
      count t t.hits;
      Some payload
  | Absent ->
      count t t.misses;
      None
  | Corrupt reason ->
      log_corrupt t ~path:(object_path t key) ~reason;
      count t t.misses;
      None

let cached t ~key ~encode ~decode compute =
  let recompute () =
    count t t.misses;
    let v = compute () in
    add t key (encode v);
    v
  in
  match read_object t key with
  | Absent -> recompute ()
  | Corrupt reason ->
      log_corrupt t ~path:(object_path t key) ~reason;
      recompute ()
  | Found payload -> (
      match decode payload with
      | Result.Ok v ->
          count t t.hits;
          v
      | Result.Error reason ->
          (* container intact but payload unparseable: same corruption
             path — recompute and heal by overwriting *)
          log_corrupt t ~path:(object_path t key) ~reason;
          recompute ())

(* --- disk accounting and gc -------------------------------------------- *)

let iter_objects t f =
  let objects = objects_dir t in
  if Sys.file_exists objects then
    Array.iter
      (fun shard ->
        let shard_dir = Filename.concat objects shard in
        if Sys.is_directory shard_dir then
          Array.iter
            (fun name ->
              let path = Filename.concat shard_dir name in
              match Unix.stat path with
              | st when st.Unix.st_kind = Unix.S_REG -> f path st
              | _ -> ()
              | exception Unix.Unix_error _ -> ())
            (Sys.readdir shard_dir))
      (Sys.readdir objects)

let disk_usage t =
  let objects = ref 0 and bytes = ref 0 in
  iter_objects t (fun _path st ->
      incr objects;
      bytes := !bytes + st.Unix.st_size);
  (!objects, !bytes)

let gc ?(max_bytes = 0) t =
  let _, total = disk_usage t in
  let entries = ref [] in
  iter_objects t (fun path st ->
      entries := (path, st.Unix.st_mtime, st.Unix.st_size) :: !entries);
  (* oldest first; keep the newest entries under the byte budget *)
  let by_age =
    List.sort (fun (_, a, _) (_, b, _) -> compare a b) !entries
  in
  let excess = total - max_bytes in
  let removed = ref 0 and freed = ref 0 in
  List.iter
    (fun (path, _, size) ->
      if !freed < excess then begin
        match Sys.remove path with
        | () ->
            incr removed;
            freed := !freed + size
        | exception Sys_error _ -> ()
      end)
    by_age;
  count_bytes t t.gc_removed !removed;
  count_bytes t t.gc_freed_bytes !freed;
  (!removed, !freed)

(* --- process-wide default store ---------------------------------------- *)

let default_store : t option ref = ref None
let default_resolved = ref false

let set_default o =
  default_resolved := true;
  default_store := o

let default () =
  if not !default_resolved then begin
    default_resolved := true;
    match Sys.getenv_opt "MCD_DVFS_CACHE" with
    | Some dir when dir <> "" -> default_store := Some (create ~dir)
    | _ -> ()
  end;
  !default_store
