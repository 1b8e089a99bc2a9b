(* Tournament smoke test for the @verify alias.

   Runs the real CLI — `mcd-dvfs tournament --quick --json FILE` — and
   asserts the contract the docs promise: the command exits 0, every
   policy registered in Mcd_control.Policies appears in the ranked
   table, the rank column counts 1..N in order, and the JSON report
   parses with one well-formed entry per contender across the quick
   workload subset.

   The CLI executable path arrives as argv(1) from the dune rule, so
   the test always runs the binary built from this tree. A dedicated
   warm cache directory keeps repeat verifies cheap without sharing
   state with the bench rule (which GCs its own directory).

   Exits 0 on success, 1 with a message on the first violation. *)

open Kit

module Policies = Mcd_control.Policies
module Policy = Mcd_control.Policy

let () =
  let cli =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else failwith "usage: tournament_smoke MCD_DVFS_CLI"
  in
  let out = Filename.temp_file "mcd-tournament" ".out" in
  let json_path = Filename.temp_file "mcd-tournament" ".json" in
  let cmd =
    Printf.sprintf
      "%s tournament --quick --jobs 0 --json %s --cache-dir \
       /tmp/mcd-tournament-cache.verify > %s"
      (Filename.quote cli) (Filename.quote json_path) (Filename.quote out)
  in
  let rc = Sys.command cmd in
  check (rc = 0) "exit code %d from %s" rc cmd;
  let table = Fs.read_file out in
  let contenders = Policies.contenders () in
  check
    (List.length contenders >= 6)
    "registry has %d contenders, want >= 6"
    (List.length contenders);
  List.iter
    (fun p ->
      check
        (contains table p.Policy.label)
        "policy %S missing from the ranked table" p.Policy.label)
    contenders;
  (* the rank column must count 1..N in order: each table body row is
     "  <rank>  <label>  ..." after the header and separator lines *)
  let body_ranks =
    String.split_on_char '\n' table
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | first :: _ -> int_of_string_opt first
           | [] -> None)
  in
  check
    (body_ranks = List.init (List.length contenders) (fun i -> i + 1))
    "rank column is %s, want 1..%d"
    (String.concat "," (List.map string_of_int body_ranks))
    (List.length contenders);
  (match Json.of_string (Fs.read_file json_path) with
  | Error e -> check false "JSON report does not parse: %s" e
  | Ok j ->
      check
        (Option.bind (Json.member "schema" j) Json.to_string_opt
        = Some "mcd-dvfs-tournament/1")
        "bad or missing schema";
      let workloads =
        Option.bind (Json.member "workloads" j) Json.to_list_opt
        |> Option.value ~default:[]
      in
      check
        (List.length workloads = 5)
        "JSON lists %d workloads, want the 5 quick ones"
        (List.length workloads);
      let entries =
        Option.bind (Json.member "entries" j) Json.to_list_opt
        |> Option.value ~default:[]
      in
      check
        (List.length entries = List.length contenders)
        "JSON has %d entries, want %d" (List.length entries)
        (List.length contenders);
      List.iter
        (fun e ->
          let str k = Option.bind (Json.member k e) Json.to_string_opt in
          let num k = Option.bind (Json.member k e) Json.to_float_opt in
          check (str "policy" <> None) "entry without a policy label";
          check
            (Option.bind (Json.member "rank" e) Json.to_int_opt <> None)
            "entry without a rank";
          List.iter
            (fun axis ->
              check (num axis <> None) "entry %s without %s"
                (Option.value ~default:"?" (str "policy"))
                axis)
            [ "degradation_pct"; "savings_pct"; "ed_improvement_pct" ])
        entries);
  Sys.remove out;
  Sys.remove json_path;
  finish ()
