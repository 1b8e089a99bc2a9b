let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ENOTDIR), _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tmp_seq = Atomic.make 0

let write_atomic path contents =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  match
    mkdir_p (Filename.dirname path);
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc contents);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error message ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error message
