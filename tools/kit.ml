(* Plumbing shared by the @verify tools: failure accounting, a private
   temp directory, and the lifecycle of a forked server. Messages carry
   the running tool's name, taken from its executable. *)

module Client = Mcd_serve.Client
module Server = Mcd_serve.Server
module Evloop = Mcd_serve.Evloop
module Error = Mcd_robust.Error
module Json = Mcd_obs.Json
module Fs = Mcd_util.Fs

let tool = Filename.remove_extension (Filename.basename Sys.executable_name)

(* --- checks ------------------------------------------------------------- *)

let failures = ref 0

(* Record a failure (and keep going) unless [cond] holds. *)
let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        Printf.eprintf "%s: FAIL %s\n%!" tool msg
      end)
    fmt

(* Print [<tool>: OK], or exit 1 after the failure count. *)
let finish () =
  if !failures = 0 then print_endline (tool ^ ": OK")
  else begin
    Printf.eprintf "%s: %d failure(s)\n%!" tool !failures;
    exit 1
  end

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* A fresh [<tmp>/mcd-<tool>.<pid>] for [f], removed however [f]
   returns. A forked child that [exit]s inside [f] leaves it alone. *)
let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-%s.%d" tool (Unix.getpid ()))
  in
  Fs.rm_rf dir;
  Fs.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Fs.rm_rf dir) (fun () -> f dir)

(* --- forked servers ----------------------------------------------------- *)

let fork_server ?digest ?compute cfg =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      exit
        (match Server.run ?digest ?compute cfg with
        | Ok () -> 0
        | Error e ->
            Printf.eprintf "%s server: %s\n%!" tool (Error.to_string e);
            1)
  | pid -> pid

(* Poll until the server accepts a connection; [false] after 30 s. *)
let wait_for_server socket =
  let deadline = Evloop.now_s () +. 30.0 in
  let rec go () =
    match Client.connect ~socket with
    | Ok c ->
        Client.close c;
        true
    | Error _ when Evloop.now_s () > deadline -> false
    | Error _ ->
        Unix.sleepf 0.05;
        go ()
  in
  go ()

let reap_status pid = snd (Unix.waitpid [] pid)

(* Wait for [pid] and require a clean exit 0. *)
let reap ~what pid =
  match reap_status pid with
  | Unix.WEXITED code -> check (code = 0) "%s exited with code %d" what code
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      check false "%s killed/stopped by signal %d" what s

let drain_and_reap ~what socket pid =
  (match Client.connect ~socket with
  | Ok c ->
      (match Client.drain c with
      | Ok () -> ()
      | Error e -> check false "drain %s: %s" what (Error.to_string e));
      Client.close c
  | Error e -> check false "connect to drain %s: %s" what (Error.to_string e));
  reap ~what pid

(* One instrument's value from the server's [stats] body (metrics JSON
   lines; counters and gauges both read as floats). A failed exchange or
   a missing instrument is a failure and reads as nan. *)
let stat socket name =
  let body =
    match Client.connect ~socket with
    | Error e -> Error e
    | Ok c ->
        let body = Client.stats c in
        Client.close c;
        body
  in
  let field key j = Option.bind (Json.member key j) in
  let value line =
    match Json.of_string line with
    | Ok j when field "name" j Json.to_string_opt = Some name ->
        field "value" j Json.to_float_opt
    | _ -> None
  in
  match body with
  | Error e ->
      check false "stats %s: %s" name (Error.to_string e);
      nan
  | Ok body -> (
      match List.find_map value (String.split_on_char '\n' body) with
      | Some v -> v
      | None ->
          check false "stats missing %s" name;
          nan)
