(* Exporter smoke test for the @verify alias.

   Runs one short traced MediaBench workload through the observed
   pipeline, writes all three export formats into a temp directory,
   then parses them back with Mcd_obs.Json and asserts they are
   well-formed and mutually consistent:

   - metrics.jsonl: every line is a JSON object with a [name] and
     either a numeric [value] or histogram [bins]/[weights] of equal
     length; the obs.* counters are present.
   - trace.json: a Chrome trace-event object whose [traceEvents] is a
     list of objects each carrying ph/pid/ts fields; the number of
     non-noop reconfiguration instants matches the run's reported
     reconfiguration count, and every counter track sample carries a
     numeric value.
   - series.csv: header plus one line per sink sample, each with the
     full column count.

   Exits 0 on success, 1 with a message on the first violation. *)

open Kit

module Sink = Mcd_obs.Sink
module Metrics = Mcd_obs.Metrics

(* Total member access: missing key or non-object reads as Null, which
   every [to_*_opt] accessor maps to [None]. *)
let mem key j = match Json.member key j with Some v -> v | None -> Json.Null

let parse_or_die what s =
  match Json.of_string s with
  | Ok j -> j
  | Error e ->
      Printf.eprintf "%s: FAIL %s does not parse: %s\n%!" tool what e;
      exit 1

(* ---- metrics.jsonl ------------------------------------------------- *)

let default_required_metrics =
  [
    "obs.reconfig_writes"; "obs.noop_writes"; "obs.sync_penalties";
    "obs.samples"; "obs.dropped_events"; "run.reconfigurations";
  ]

let check_metrics_jsonl ?(required = default_required_metrics)
    ?(allow_empty = false) path =
  let lines =
    Fs.read_file path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  if not allow_empty then check (lines <> []) "metrics.jsonl is empty";
  let names = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      let j = parse_or_die (Printf.sprintf "metrics.jsonl line %d" (i + 1)) line in
      match mem "name" j |> Json.to_string_opt with
      | None -> check false "metrics.jsonl line %d has no name" (i + 1)
      | Some name -> (
          Hashtbl.replace names name ();
          match mem "bins" j |> Json.to_int_opt with
          | Some bins ->
              let weights =
                match mem "weights" j |> Json.to_list_opt with
                | Some w -> w
                | None -> []
              in
              check
                (List.length weights = bins)
                "histogram %s has %d weights for %d bins" name
                (List.length weights) bins
          | None ->
              check
                (mem "value" j |> Json.to_float_opt <> None)
                "metric %s has neither value nor bins" name))
    lines;
  List.iter
    (fun n -> check (Hashtbl.mem names n) "metrics.jsonl missing %s" n)
    required;
  names

(* ---- trace.json ---------------------------------------------------- *)

let check_chrome_trace ?(allow_empty = false) path ~reconfigurations =
  let j = parse_or_die "trace.json" (Fs.read_file path) in
  let events =
    match mem "traceEvents" j |> Json.to_list_opt with
    | Some l -> l
    | None ->
        check false "trace.json has no traceEvents list";
        []
  in
  if not allow_empty then check (events <> []) "trace.json has no events";
  let non_noop_reconfigs = ref 0 in
  List.iteri
    (fun i ev ->
      let ph = mem "ph" ev |> Json.to_string_opt in
      check (ph <> None) "trace event %d has no ph" i;
      check
        (mem "pid" ev |> Json.to_int_opt <> None)
        "trace event %d has no pid" i;
      (if ph <> Some "M" then
         check
           (mem "ts" ev |> Json.to_float_opt <> None)
           "trace event %d has no ts" i);
      match ph with
      | Some "C" ->
          let args = mem "args" ev in
          check
            (mem "mhz" args |> Json.to_float_opt <> None
            || mem "occ" args |> Json.to_float_opt <> None)
            "counter event %d has no numeric mhz/occ value" i
      | Some "i" ->
          if mem "name" ev |> Json.to_string_opt = Some "reconfig" then
            let noop =
              mem "args" ev |> mem "noop" |> Json.to_bool_opt
            in
            check (noop <> None) "reconfig instant %d has no args.noop" i;
            if noop = Some false then incr non_noop_reconfigs
      | _ -> ())
    events;
  check
    (!non_noop_reconfigs = reconfigurations)
    "trace.json non-noop reconfig instants = %d, run reported %d"
    !non_noop_reconfigs reconfigurations

(* ---- series.csv ---------------------------------------------------- *)

let check_series_csv path ~samples =
  let lines =
    Fs.read_file path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> check false "series.csv is empty"
  | header :: rows ->
      let cols = List.length (String.split_on_char ',' header) in
      check (cols > 3) "series.csv header has only %d columns" cols;
      check
        (List.length rows = samples)
        "series.csv has %d rows, sink recorded %d samples"
        (List.length rows) samples;
      List.iteri
        (fun i row ->
          check
            (List.length (String.split_on_char ',' row) = cols)
            "series.csv row %d column count mismatch" (i + 1))
        rows

(* ---- edge inputs --------------------------------------------------- *)

(* The exporters must also hold up on degenerate sinks: a sink that saw
   nothing (the daemon exporting its trace after serving zero jobs) and
   a sink with exactly one sample. Both must still produce three files
   that parse back clean. *)
let check_edge_exports base =
  let export dir sink =
    let written = Mcd_obs.Export.write_dir ~dir sink in
    check (List.length written = 3)
      "edge export: expected 3 files in %s, got %d" dir (List.length written)
  in
  (* empty sink: no events, no samples *)
  let dir = Filename.concat base "edge-empty" in
  let sink = Sink.create ~domains:Mcd_domains.Domain.count () in
  export dir sink;
  ignore
    (check_metrics_jsonl ~required:[] ~allow_empty:true
       (Filename.concat dir "metrics.jsonl"));
  check_chrome_trace ~allow_empty:true
    (Filename.concat dir "trace.json")
    ~reconfigurations:0;
  check_series_csv (Filename.concat dir "series.csv") ~samples:0;
  (* one-sample sink: the smallest non-trivial series *)
  let dir = Filename.concat base "edge-one" in
  let sink = Sink.create ~domains:Mcd_domains.Domain.count () in
  let n = Mcd_domains.Domain.count in
  Sink.sample sink ~t_ps:1_000 ~cycles:1 ~ipc:1.0
    ~mhz:(Array.make n 1000.0) ~volt:(Array.make n 1.2)
    ~occ:(Array.make n 0.0)
    ~pj:(Array.make (n + 1) 1.0);
  export dir sink;
  ignore
    (check_metrics_jsonl ~required:[ "obs.samples" ]
       (Filename.concat dir "metrics.jsonl"));
  check_chrome_trace (Filename.concat dir "trace.json") ~reconfigurations:0;
  check_series_csv (Filename.concat dir "series.csv") ~samples:1

(* ---- driver -------------------------------------------------------- *)

let smoke dir =
  let w = Mcd_workloads.Mediabench.adpcm_decode in
  let sink =
    Sink.create ~stride_cycles:2048 ~domains:Mcd_domains.Domain.count ()
  in
  let run =
    Mcd_experiments.Runner.(
      run ~sink
        (Profile
           {
             context = Mcd_profiling.Context.lf;
             train = `Train;
             slowdown_pct = default_slowdown_pct;
           })
        w)
  in
  check_edge_exports dir;
  let domain_names =
    Array.of_list (List.map Mcd_domains.Domain.name Mcd_domains.Domain.all)
  in
  let written = Mcd_obs.Export.write_dir ~domain_names ~dir sink in
  check (List.length written = 3) "expected 3 exported files, got %d"
    (List.length written);
  let reconfigurations = run.Mcd_power.Metrics.reconfigurations in
  check (reconfigurations > 0)
    "profiled adpcm run performed no reconfigurations";
  let samples =
    Metrics.value (Metrics.counter (Sink.metrics sink) "obs.samples")
  in
  let _names = check_metrics_jsonl (Filename.concat dir "metrics.jsonl") in
  check_chrome_trace (Filename.concat dir "trace.json") ~reconfigurations;
  check_series_csv (Filename.concat dir "series.csv") ~samples

let () =
  with_temp_dir smoke;
  finish ()
