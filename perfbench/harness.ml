(* Harness for the repository benchmark.

     harness.exe setup WORKLOAD --dir DIR
     harness.exe run WORKLOAD --dir DIR --seed N --seconds S --trace 0|1
     harness.exe pin

   [setup] and [run] print one JSON report on their last stdout line:
   every operation with its timing and the MD5 of its result bytes, the
   coldness and warmth checks, the peak RSS of the process that did the
   work and, in a traced run, per-layer times and work counts. Layers
   are timed from outside, by wrapping calls to each layer's public
   functions. [pin] prints the digest of every result the benchmark can
   request. perfbench/run.py drives the harness and turns its reports
   into the benchmark's metrics; all paths it passes are relative to the
   checkout root, which keeps the server's socket path short. *)

module R = Mcd_experiments.Runner
module W = Mcd_workloads.Workload
module Suite = Mcd_workloads.Suite
module Run = Mcd_power.Metrics
module Store = Mcd_cache.Store
module Key = Mcd_cache.Key
module Context = Mcd_profiling.Context
module Call_tree = Mcd_profiling.Call_tree
module Collector = Mcd_trace.Collector
module Pipeline = Mcd_cpu.Pipeline
module Sampler = Mcd_cpu.Sampler
module Config = Mcd_cpu.Config
module Dag = Mcd_core.Dag
module Shaker = Mcd_core.Shaker
module Path_model = Mcd_core.Path_model
module Plan = Mcd_core.Plan
module Plan_io = Mcd_core.Plan_io
module Editor = Mcd_core.Editor
module Oracle = Mcd_core.Oracle
module Histogram = Mcd_util.Histogram
module Rng = Mcd_util.Rng
module Policy = Mcd_control.Policy
module Policies = Mcd_control.Policies
module Server = Mcd_serve.Server
module Client = Mcd_serve.Client
module Protocol = Mcd_serve.Protocol
module Json = Mcd_obs.Json

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let md5 s = Digest.to_hex (Digest.string s)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec copy_tree src dst =
  match (Unix.stat src).Unix.st_kind with
  | Unix.S_DIR ->
      mkdir_p dst;
      Array.iter
        (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
        (Sys.readdir src)
  | _ ->
      let data = In_channel.with_open_bin src In_channel.input_all in
      Out_channel.with_open_bin dst (fun oc -> output_string oc data)

(* VmHWM of the calling process, in MiB. *)
let peak_rss_mb () =
  let text = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
      | _ -> acc)
    0.0
    (String.split_on_char '\n' text)

(* --- workloads ----------------------------------------------------------- *)

(* Every program runs at 1/8 of its suite instruction windows (training
   window, reference window and warm-up), under its own name. At full
   windows one cold plan-cold pass takes about 50 s and the serve-mix
   warm set about 40 s on a 2-core host, so a run could not repeat its
   work and the benchmark could not be run often. At 1/8 every layer is
   still on the path: each plan still shakes at least one DAG segment
   per program and each oracle analysis still covers several
   intervals. *)
let scale = 8

let scaled name =
  let w = Suite.by_name name in
  {
    w with
    W.name = Printf.sprintf "%s@1/%d" name scale;
    train_window = w.W.train_window / scale;
    ref_window = w.W.ref_window / scale;
    ref_offset = w.W.ref_offset / scale;
  }

(* "gsm encode@1/8" -> "gsm_encode": the program's part of ids and
   metric names. *)
let slug_of_name name =
  let base =
    match String.index_opt name '@' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  String.map (fun c -> if c = ' ' then '_' else c) base

let slug (w : W.t) = slug_of_name w.W.name
let lf = Context.lf
let slowdown = R.default_slowdown_pct
let config = Config.alpha21264_like
let sampled () = R.set_sim_mode (R.Sampled Sampler.default_params)
let plan_programs () = List.map scaled [ "gsm encode"; "mpeg2 decode" ]
let feedback_programs () = List.map scaled [ "mcf"; "gsm encode" ]
let serve_programs () = List.map scaled [ "adpcm decode"; "gsm encode" ]

let feedback_policies () =
  List.map
    (fun n -> Option.get (Policies.by_name n))
    [ "baseline"; "online"; "pid" ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- the report ---------------------------------------------------------- *)

type op = {
  id : string;  (** names the pinned digest the result must match *)
  kind : string;
  due : float;  (** when the operation was due to start (monotonic s) *)
  finish : float;
  digest : string option;
  error : string option;
  phases : (string * float) list;  (** seconds, traced serve runs only *)
}

let ops : op list ref = ref []
let record o = ops := o :: !ops

let op_json o =
  let opt = function Some s -> Json.String s | None -> Json.Null in
  Json.Obj
    [
      ("id", Json.String o.id);
      ("kind", Json.String o.kind);
      ("due", Json.Float o.due);
      ("finish", Json.Float o.finish);
      ("digest", opt o.digest);
      ("error", opt o.error);
      ("phases", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.phases));
    ]

(* Coldness, warmth and identity checks: each must observe exactly the
   expected count. *)
let checks : (string * int * int) list ref = ref []

let check name ~expected ~observed =
  checks := (name, expected, observed) :: !checks

let checks_json () =
  Json.List
    (List.rev_map
       (fun (name, expected, observed) ->
         Json.Obj
           [
             ("name", Json.String name);
             ("expected", Json.Int expected);
             ("observed", Json.Int observed);
           ])
       !checks)

let timed_op ~id ~kind f =
  let t0 = now () in
  let digest, error =
    match f () with
    | bytes -> (Some (md5 bytes), None)
    | exception e -> (None, Some (Printexc.to_string e))
  in
  record { id; kind; due = t0; finish = now (); digest; error; phases = [] }

(* A result of a traced run: checked against its pin, not timed. *)
let record_traced id bytes =
  let t = now () in
  record
    { id; kind = "traced"; due = t; finish = t; digest = Some (md5 bytes); error = None; phases = [] }

(* Per-layer accumulators of a traced run: seconds spent inside calls to
   a layer, and work counts taken at the same call sites. The spans
   never nest, so a layer's self time is its total. *)
let layer_s : (string, float) Hashtbl.t = Hashtbl.create 32
let layer_n : (string, float) Hashtbl.t = Hashtbl.create 32

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

let span name f =
  let t0 = now () in
  let r = f () in
  add layer_s name (now () -. t0);
  r

let count name v = add layer_n name v
let spans_total () = Hashtbl.fold (fun _ v acc -> acc +. v) layer_s 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

let print_report fields =
  print_endline
    (Json.to_string
       (Json.Obj
          (fields
          @ [
              ("ops", Json.List (List.rev_map op_json !ops));
              ("checks", checks_json ());
            ])))

(* Run [pass] again while the next run is predicted to end inside the
   measuring window; always once. Returns what the passes returned. *)
let repeat_passes ~seconds pass =
  let start = now () in
  let rec go acc last =
    if acc <> [] && now () -. start +. last > seconds then List.rev acc
    else begin
      let t0 = now () in
      let r = pass (List.length acc) in
      go (r :: acc) (now () -. t0)
    end
  in
  go [] 0.0

(* A cold pass's report: its wall and each program's share of it. *)
let batch_pass_json (wall, programs) =
  Json.Obj
    [
      ("wall_s", Json.Float wall);
      ("programs", Json.Obj (List.map (fun (p, s) -> (p, Json.Float s)) programs));
    ]

let fresh_store dir =
  rm_rf dir;
  let store = Store.create ~dir in
  Store.set_default (Some store);
  store

(* Each warm re-read requests every result of the cold pass again with
   the in-memory memos cleared, so it is served by the store. *)
let warm_repeats = 100

(* --- plan-cold ----------------------------------------------------------- *)

let plan_requests = [ "baseline"; "profile"; "offline" ]

(* A cold program misses the store five times: its baseline run, its
   profiled run and plan, its off-line run and oracle analysis. *)
let cold_misses_per_program = 5
let op_id workload w req = Printf.sprintf "%s/%s/%s" workload (slug w) req

let plan_request w = function
  | "baseline" -> R.baseline w
  | "profile" -> (R.profile_run w ~context:lf ~train:`Train).R.run
  | "offline" -> R.offline_run w
  | r -> invalid_arg r

let plan_cold_pass ~dir ~progs ~warm n =
  let store = fresh_store (Filename.concat dir (Printf.sprintf "store-%d" n)) in
  R.clear_caches ();
  let each kind =
    List.map
      (fun w ->
        let t0 = now () in
        List.iter
          (fun req ->
            timed_op ~id:(op_id "plan-cold" w req) ~kind (fun () ->
                Run.encode (plan_request w req)))
          plan_requests;
        (slug w, now () -. t0))
      progs
  in
  let t0 = now () in
  let programs = each "cold" in
  let wall = now () -. t0 in
  let cold = Store.stats store in
  let nprogs = List.length progs in
  check
    (Printf.sprintf "pass %d cold store misses" n)
    ~expected:(cold_misses_per_program * nprogs) ~observed:cold.Store.misses;
  check (Printf.sprintf "pass %d cold store hits" n) ~expected:0
    ~observed:cold.Store.hits;
  if warm then begin
    for _ = 1 to warm_repeats do
      R.clear_caches ();
      ignore (each "warm")
    done;
    let s = Store.stats store in
    check
      (Printf.sprintf "pass %d warm store hits" n)
      ~expected:(warm_repeats * List.length plan_requests * nprogs)
      ~observed:(s.Store.hits - cold.Store.hits);
    check
      (Printf.sprintf "pass %d warm store misses" n)
      ~expected:0
      ~observed:(s.Store.misses - cold.Store.misses)
  end;
  Store.set_default None;
  rm_rf (Store.dir store);
  (wall, programs)

let sampled_run ?controller (w : W.t) =
  let report = ref None in
  let run =
    span "sampler.s" (fun () ->
        Pipeline.run ?controller ~sampling:Sampler.default_params
          ~sampler_report:report ~config ~warmup_insts:w.W.ref_offset
          ~program:w.W.program ~input:w.W.reference ~max_insts:w.W.ref_window
          ())
  in
  (match !report with
  | Some r ->
      count "sampler.recorded" (float_of_int r.Sampler.recorded_instances);
      count "sampler.skipped_insts" (float_of_int r.Sampler.skipped_insts);
      count "sampler.unstable" (float_of_int r.Sampler.unstable_signatures)
  | None -> ());
  count "sampler.retired" (float_of_int run.Run.instructions);
  run

let exact_run ?controller (w : W.t) =
  Pipeline.run ?controller ~config ~warmup_insts:w.W.ref_offset
    ~program:w.W.program ~input:w.W.reference ~max_insts:w.W.ref_window ()

(* Analyze.analyze, recomposed from its public steps with the same
   arguments Runner.plan_for passes. Analyze skips segments shorter
   than 50 events and gives the shaker 24 pass pairs. *)
let min_segment_events = 50
let shaker_passes = 24

let recompose_plan (w : W.t) =
  let input, _ = R.analysis_input w ~train:`Train in
  let trace_insts = R.analysis_trace_insts w ~train:`Train in
  let tree =
    span "profiling.walk_s" (fun () ->
        Call_tree.build w.W.program ~input ~context:lf
          ~max_insts:R.analysis_profile_insts ())
  in
  let collector = Collector.create ~tree () in
  let segments =
    span "trace.run_s" (fun () ->
        ignore
          (Pipeline.run ~probe:(Collector.probe collector) ~config
             ~program:w.W.program ~input ~max_insts:trace_insts ());
        Collector.segments collector)
  in
  let node_histograms = ref [] and node_paths = ref [] in
  List.iter
    (fun (node_id, segs) ->
      let merged =
        Array.init Mcd_domains.Domain.count (fun _ ->
            Histogram.create ~bins:Mcd_domains.Freq.num_steps)
      in
      let paths = ref Path_model.empty and used = ref false in
      List.iter
        (fun seg ->
          count "trace.events" (float_of_int (Array.length seg));
          if Array.length seg >= min_segment_events then begin
            let dag =
              span "dag.build_s" (fun () ->
                  Dag.build ~rob_size:config.Config.rob_size seg)
            in
            count "dag.events" (float_of_int (Dag.size dag));
            count "dag.edges" (float_of_int (Dag.edge_count dag));
            let res =
              span "shaker.s" (fun () -> Shaker.run ~max_passes:shaker_passes dag)
            in
            count "shaker.passes" (float_of_int res.Shaker.passes);
            count "shaker.events" (float_of_int res.Shaker.total_events);
            count "shaker.stretched" (float_of_int res.Shaker.stretched_events);
            Array.iteri
              (fun i h -> Histogram.merge_into ~dst:merged.(i) ~src:h)
              res.Shaker.histograms;
            let sigs = span "pathsig.s" (fun () -> Dag.path_signatures dag) in
            paths := Path_model.add_segment !paths sigs;
            used := true
          end)
        segs;
      if !used then begin
        node_histograms := (node_id, merged) :: !node_histograms;
        node_paths := (node_id, !paths) :: !node_paths
      end)
    segments;
  span "plan.make_s" (fun () ->
      Plan.make ~tree ~context:lf ~slowdown_pct:slowdown
        ~node_histograms:!node_histograms ~node_paths:!node_paths ())

let ed_pct ~baseline run = (R.compare_runs ~baseline run).R.ed_improvement_pct

(* The cold path of one program, every layer call wrapped in a span:
   the same work baseline + profile_run + offline_run do on a cold
   store, with each result stored. Returns what the checks after the
   timed pass need. *)
let traced_program store (w : W.t) =
  let put id encode =
    span "store.put_s" (fun () ->
        let bytes = encode () in
        Store.add store (Key.make ~kind:"perfbench" ~parts:[ ("id", id) ]) bytes;
        bytes)
  in
  let result req run =
    let id = op_id "plan-cold" w req in
    record_traced id (put id (fun () -> Run.encode run))
  in
  let base = sampled_run w in
  result "baseline" base;
  let plan = recompose_plan w in
  let plan_bytes = put (op_id "plan-cold" w "plan") (fun () -> Plan_io.to_string plan) in
  let edited = span "editor.edit_s" (fun () -> Editor.edit plan) in
  let prof = sampled_run ~controller:edited.Editor.controller w in
  result "profile" prof;
  let analysis =
    span "oracle.analyze_s" (fun () ->
        Oracle.analyze ~program:w.W.program ~input:w.W.reference
          ~trace_insts:(w.W.ref_offset + w.W.ref_window) ~config ())
  in
  count "oracle.intervals" (float_of_int (Array.length analysis.Oracle.intervals));
  ignore (put (op_id "plan-cold" w "oracle") (fun () -> Oracle.encode_analysis analysis));
  let schedule =
    span "oracle.analyze_s" (fun () -> Oracle.schedule_of analysis ~slowdown_pct:slowdown)
  in
  let off = sampled_run ~controller:(Oracle.policy schedule) w in
  result "offline" off;
  (w, plan, plan_bytes, schedule, base, prof, off)

(* Untraced passes before and after the traced one: their mean is the
   untraced wall trace_overhead_s compares with, which cancels the first
   pass's start-up cost and a steady drift in host speed. The second one
   also re-reads its results warm. *)
let plan_cold_traced ~dir ~progs =
  let before, _ = plan_cold_pass ~dir ~progs ~warm:false 0 in
  let store = fresh_store (Filename.concat dir "store-traced") in
  let t0 = now () in
  let results = List.map (traced_program store) progs in
  let wall = now () -. t0 in
  let covered = spans_total () in
  let bytes_written = (Store.stats store).Store.bytes_written in
  Store.set_default None;
  rm_rf (Store.dir store);
  let untraced = (before +. fst (plan_cold_pass ~dir ~progs ~warm:true 1)) /. 2.0 in
  (* Outside the timed pass: the recomposed plans must be the bytes
     Runner.plan_for computes, and every production run is repeated
     exactly to measure the sampler's drift. *)
  R.clear_caches ();
  let drift = ref 0.0 in
  List.iter
    (fun (w, plan, plan_bytes, schedule, base, prof, off) ->
      let theirs = Plan_io.to_string (R.plan_for w ~context:lf ~train:`Train) in
      record_traced (op_id "plan-cold" w "plan") plan_bytes;
      check
        (Printf.sprintf "%s recomposed plan equals Runner.plan_for" (slug w))
        ~expected:1
        ~observed:(if plan_bytes = theirs then 1 else 0);
      let base_x = exact_run w in
      let prof_x = exact_run ~controller:(Editor.edit plan).Editor.controller w in
      let off_x = exact_run ~controller:(Oracle.policy schedule) w in
      List.iter
        (fun (s, x) ->
          let d = Float.abs (ed_pct ~baseline:base s -. ed_pct ~baseline:base_x x) in
          if d > !drift then drift := d)
        [ (prof, prof_x); (off, off_x) ])
    results;
  let s = get layer_s and n = get layer_n in
  [
    ("profiling.walk_s", s "profiling.walk_s");
    ("trace.run_s", s "trace.run_s");
    ("trace.events", n "trace.events");
    ("dag.build_s", s "dag.build_s");
    ("dag.events", n "dag.events");
    ("dag.edges", n "dag.edges");
    ("shaker.s", s "shaker.s");
    ("shaker.ns_per_event", 1e9 *. ratio (s "shaker.s") (n "shaker.events"));
    ("shaker.passes", n "shaker.passes");
    ("shaker.stretched_ratio", ratio (n "shaker.stretched") (n "shaker.events"));
    ("pathsig.s", s "pathsig.s");
    ("pathsig.ns_per_event", 1e9 *. ratio (s "pathsig.s") (n "dag.events"));
    ("plan.make_s", s "plan.make_s");
    ("editor.edit_s", s "editor.edit_s");
    ("oracle.analyze_s", s "oracle.analyze_s");
    ("oracle.intervals", n "oracle.intervals");
    ("sampler.s", s "sampler.s");
    ( "sampler.skipped_insts_ratio",
      ratio (n "sampler.skipped_insts") (n "sampler.retired") );
    ("sampler.recorded", n "sampler.recorded");
    ("sampler.unstable", n "sampler.unstable");
    ("sampler.drift_ed_pp", !drift);
    ("store.put_s", s "store.put_s");
    ("store.bytes_written", float_of_int bytes_written);
    ("trace_overhead_s", wall -. untraced);
    ("layers.coverage", ratio covered wall);
  ]

(* --- feedback-exact ------------------------------------------------------ *)

let feedback_pass ~dir ~progs ~pols ~warm n =
  R.set_sim_mode R.Exact;
  Store.set_default None;
  R.clear_caches ();
  let each kind =
    List.map
      (fun w ->
        let t0 = now () in
        let runs =
          List.map
            (fun (p : Policy.t) ->
              let id = op_id "feedback-exact" w p.Policy.label in
              let run = ref None in
              timed_op ~id ~kind (fun () ->
                  let r = R.policy_run p w in
                  run := Some r;
                  Run.encode r);
              (p, w, !run))
            pols
        in
        ((slug w, now () -. t0), runs))
      progs
  in
  let t0 = now () in
  let programs, runs = List.split (each "cold") in
  let wall = now () -. t0 in
  if warm then begin
    (* Feedback runs are measured without a store; the warm re-reads
       get one, filled outside the timed pass. *)
    let store = fresh_store (Filename.concat dir (Printf.sprintf "store-%d" n)) in
    let runs = List.concat runs in
    List.iter
      (fun (p, w, run) ->
        Option.iter (fun r -> Store.add store (R.policy_key p w) (Run.encode r)) run)
      runs;
    let before = Store.stats store in
    for _ = 1 to warm_repeats do
      R.clear_caches ();
      ignore (each "warm")
    done;
    let s = Store.stats store in
    check
      (Printf.sprintf "pass %d warm store hits" n)
      ~expected:(warm_repeats * List.length runs)
      ~observed:(s.Store.hits - before.Store.hits);
    check
      (Printf.sprintf "pass %d warm store misses" n)
      ~expected:0
      ~observed:(s.Store.misses - before.Store.misses);
    Store.set_default None;
    rm_rf (Store.dir store)
  end;
  (wall, programs)

let feedback_traced ~dir ~progs ~pols =
  let before, _ = feedback_pass ~dir ~progs ~pols ~warm:false 0 in
  let t0 = now () in
  List.iter
    (fun w ->
      let sl = slug w in
      List.iter
        (fun (p : Policy.t) ->
          let run =
            span ("pipeline.exact_s." ^ sl) (fun () ->
                exact_run ~controller:(p.Policy.create ()) w)
          in
          count ("instructions." ^ sl) (float_of_int run.Run.instructions);
          count ("cycles." ^ sl) (float_of_int run.Run.cycles_front);
          record_traced (op_id "feedback-exact" w p.Policy.label) (Run.encode run))
        pols)
    progs;
  let wall = now () -. t0 in
  let covered = spans_total () in
  let untraced = (before +. fst (feedback_pass ~dir ~progs ~pols ~warm:true 1)) /. 2.0 in
  List.concat_map
    (fun w ->
      let sl = slug w in
      let secs = get layer_s ("pipeline.exact_s." ^ sl) in
      [
        ("pipeline.exact_s." ^ sl, secs);
        ("pipeline.kips." ^ sl, ratio (get layer_n ("instructions." ^ sl) /. 1000.0) secs);
        ("pipeline.cycles_per_s." ^ sl, ratio (get layer_n ("cycles." ^ sl)) secs);
      ])
    progs
  @ [ ("trace_overhead_s", wall -. untraced); ("layers.coverage", ratio covered wall) ]

(* --- serve-mix ----------------------------------------------------------- *)

let serve_id (r : Protocol.request) =
  Printf.sprintf "serve-mix/%s/%s/%.3f" (slug_of_name r.Protocol.workload)
    (Protocol.policy_name r.Protocol.policy)
    r.Protocol.slowdown_pct

(* The warm set: what set-up computes and the reads ask for again. *)
let warm_requests progs =
  List.concat_map
    (fun (w : W.t) ->
      List.map
        (fun policy ->
          Protocol.request ~policy ~context:lf.Context.name ~slowdown_pct:slowdown
            w.W.name)
        Protocol.[ Baseline; Profile; Offline; Online ])
    progs

(* Store objects the warm set leaves per program: the baseline, profiled,
   off-line and on-line runs, the plan and the oracle analysis. *)
let warm_objects_per_program = 6

(* Writes re-threshold a warm plan or oracle analysis at a slowdown the
   warm set does not hold: multiples of 1/8 point from 1 to 15.875. *)
let write_slowdowns =
  List.filter (fun s -> s <> slowdown) (List.init 120 (fun i -> 1.0 +. (0.125 *. float_of_int i)))

let write_requests progs =
  List.concat_map
    (fun (w : W.t) ->
      List.concat_map
        (fun policy ->
          List.map
            (fun s ->
              Protocol.request ~policy ~context:lf.Context.name ~slowdown_pct:s
                w.W.name)
            write_slowdowns)
        Protocol.[ Profile; Offline ])
    progs

let snapshot_dir dir = Filename.concat dir "snapshot"

let serve_setup ~dir =
  sampled ();
  let progs = serve_programs () in
  List.iter Suite.register progs;
  let store = fresh_store (snapshot_dir dir) in
  R.set_jobs 2;
  let filled =
    R.par_map
      (fun r ->
        let t0 = now () in
        let bytes = Server.compute r in
        (r, t0, now (), md5 bytes))
      (warm_requests progs)
  in
  List.iter
    (fun (r, t0, t1, digest) ->
      record
        {
          id = serve_id r;
          kind = "setup";
          due = t0;
          finish = t1;
          digest = Some digest;
          error = None;
          phases = [];
        })
    filled;
  check "warm set store objects"
    ~expected:(warm_objects_per_program * List.length progs)
    ~observed:(fst (Store.disk_usage store))

let socket_of dir = Filename.concat dir "serve.sock"
let exit_info_of dir = Filename.concat dir "server-exit.json"

(* Restore the set-up snapshot into a fresh live store with a fresh
   journal, and fork a server over it. The child writes its profiler
   walk count and peak RSS to [exit_info_of dir] when it has drained. *)
let start_server ~dir =
  let live = Filename.concat dir "live" in
  rm_rf live;
  copy_tree (snapshot_dir dir) live;
  let socket = socket_of dir in
  (try Sys.remove socket with Sys_error _ -> ());
  (try Sys.remove (exit_info_of dir) with Sys_error _ -> ());
  let cfg =
    {
      (Server.default_config ~socket) with
      Server.workers = 2;
      journal = Some (Filename.concat live "serve.journal");
      drain_grace_s = 0.05;
    }
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Store.set_default (Some (Store.create ~dir:live));
      let code =
        match Server.run cfg with
        | Ok () -> 0
        | Error e ->
            prerr_endline (Mcd_robust.Error.to_string e);
            1
      in
      Out_channel.with_open_text (exit_info_of dir) (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("profiler_walks", Json.Int (R.profiler_walks ()));
                    ("peak_rss_mb", Json.Float (peak_rss_mb ()));
                  ])));
      Stdlib.exit code
  | pid ->
      let deadline = now () +. 10.0 in
      let rec ready () =
        match Client.connect ~socket with
        | Ok c -> Client.close c
        | Error e ->
            if now () > deadline then failwith (Mcd_robust.Error.to_string e);
            Unix.sleepf 0.01;
            ready ()
      in
      ready ();
      pid

let server_stats ~dir =
  match Client.connect ~socket:(socket_of dir) with
  | Error e -> failwith (Mcd_robust.Error.to_string e)
  | Ok c ->
      let s = Client.stats c in
      Client.close c;
      (match s with Ok s -> s | Error e -> failwith (Mcd_robust.Error.to_string e))

let stop_server ~dir pid =
  (match Client.connect ~socket:(socket_of dir) with
  | Ok c ->
      ignore (Client.drain c);
      Client.close c
  | Error _ -> ());
  let _, status = Unix.waitpid [] pid in
  check "server exit code" ~expected:0
    ~observed:(match status with Unix.WEXITED c -> c | _ -> -1);
  match Json.of_string (In_channel.with_open_text (exit_info_of dir) In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith e

type arrival = { at : float; req : Protocol.request; kind : string }

(* Open-loop traffic: seeded Poisson arrivals at [rate] for [duration]
   seconds. Every tenth request (from a seeded offset) is a write,
   taking the next fresh key of [writes]: fixing the share rather than
   drawing it keeps write bursts, and so the latency tail, from varying
   more than the arrivals make them. A fifth of the writes are sent
   twice at once, so the copy coalesces onto the job in flight. The rest
   read a warm key. *)
let write_every = 10
let dup_share = 0.2

let schedule ~rng ~rate ~duration ~reads ~writes =
  let offset = Rng.int rng write_every in
  let rec go i t acc =
    let t = t +. (-.Float.log (1.0 -. Rng.float rng 1.0) /. rate) in
    if t >= duration then Array.of_list (List.rev acc)
    else if i mod write_every = offset && not (Queue.is_empty writes) then begin
      let r = Queue.pop writes in
      let acc = { at = t; req = r; kind = "write" } :: acc in
      go (i + 1) t (if Rng.bool rng dup_share then { at = t; req = r; kind = "dup" } :: acc else acc)
    end
    else
      go (i + 1) t
        ({ at = t; req = reads.(Rng.int rng (Array.length reads)); kind = "read" } :: acc)
  in
  go 0 0.0 []

let conns = 2

let unanswered arrivals ~start ~kind_prefix ~error results =
  Array.mapi
    (fun i r ->
      match r with
      | Some o -> o
      | None ->
          let a = arrivals.(i) in
          {
            id = serve_id a.req;
            kind = kind_prefix ^ a.kind;
            due = start +. a.at;
            finish = now ();
            digest = None;
            error = Some error;
            phases = [];
          })
    results

let outcome_fields = function
  | Ok payload -> (Some (md5 payload), None)
  | Error e -> (None, Some (Mcd_robust.Error.to_string e))

(* Drive [arrivals] over pipelined connections, timing each request from
   its due time; requests still unanswered [grace] seconds after the
   last arrival fail as timeouts. Returns the operations. *)
let pipelined ~dir ~kind_prefix ~arrivals ~grace =
  let pipes =
    Array.init conns (fun _ ->
        match Client.Pipeline.connect ~socket:(socket_of dir) () with
        | Ok p -> p
        | Error e -> failwith (Mcd_robust.Error.to_string e))
  in
  let n = Array.length arrivals in
  let start = now () +. 0.01 in
  let results = Array.make n None in
  let pending = ref 0 and next = ref 0 in
  let issue i =
    let a = arrivals.(i) in
    let due = start +. a.at in
    let sent = now () in
    incr pending;
    Client.Pipeline.run pipes.(i mod conns) a.req ~k:(fun res ->
        decr pending;
        let digest, error = outcome_fields res in
        results.(i) <-
          Some
            {
              id = serve_id a.req;
              kind = kind_prefix ^ a.kind;
              due;
              finish = now ();
              digest;
              error;
              phases = [ ("late", sent -. due) ];
            })
  in
  let fds = Array.to_list (Array.map Client.Pipeline.fd pipes) in
  let pump () = Array.iter (fun p -> ignore (Client.Pipeline.pump p)) pipes in
  let last_due = if n = 0 then start else start +. arrivals.(n - 1).at in
  while !next < n || (!pending > 0 && now () < last_due +. grace) do
    let t = now () in
    while !next < n && start +. arrivals.(!next).at <= t do
      issue !next;
      incr next
    done;
    pump ();
    let wait =
      if !next < n then Float.min 0.002 (start +. arrivals.(!next).at -. now ())
      else 0.002
    in
    if wait > 0.0 then
      match Unix.select fds [] [] wait with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter Client.Pipeline.close pipes;
  unanswered arrivals ~start ~kind_prefix ~error:"timeout" results

(* The traced pass: the same schedule over blocking connections, one
   thread each, so each request's submit, wait and result exchanges can
   be timed apart. A request starts when it is due or, if both
   connections are busy, when one frees (the lateness is recorded). *)
let phased ~dir ~arrivals =
  let n = Array.length arrivals in
  let start = now () +. 0.01 in
  let results = Array.make n None in
  let next = ref 0 and m = Mutex.create () in
  let worker () =
    match Client.connect ~socket:(socket_of dir) with
    | Error _ -> ()
    | Ok c ->
        let rec loop () =
          Mutex.lock m;
          let i = !next in
          if i < n then incr next;
          Mutex.unlock m;
          if i < n then begin
            let a = arrivals.(i) in
            let due = start +. a.at in
            let d = due -. now () in
            if d > 0.0 then Unix.sleepf d;
            let t0 = now () in
            let sub = Client.submit c a.req in
            let t1 = now () in
            let res, t2 =
              match sub with
              | Error e -> (Error e, t1)
              | Ok tk -> (
                  let w = Client.wait c tk.Client.id in
                  let t2 = now () in
                  match w with
                  | Error e -> (Error e, t2)
                  | Ok _ -> (Client.result c tk.Client.id, t2))
            in
            let t3 = now () in
            let digest, error = outcome_fields res in
            results.(i) <-
              Some
                {
                  id = serve_id a.req;
                  kind = "traced-" ^ a.kind;
                  due;
                  finish = t3;
                  digest;
                  error;
                  phases =
                    [
                      ("late", t0 -. due);
                      ("submit", t1 -. t0);
                      ("wait", t2 -. t1);
                      ("result", t3 -. t2);
                    ];
                };
            loop ()
          end
        in
        loop ();
        Client.close c
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  unanswered arrivals ~start ~kind_prefix:"traced-" ~error:"connection failed" results

(* The nominal offered rate of the fixed-rate pass, the p99 limit a
   ladder step must meet, and the ladder: rates nominal * 1.05^k for k
   within [ladder_span] steps of the nominal rate, each probed for
   [ladder_step_s] seconds. The nominal rate uses about a quarter of the
   two workers, so the fixed-rate pass stays below capacity even while
   the host runs at less than half its usual speed. *)
let nominal_rate = 50.0
let p99_limit_s = 1.0
let ladder_step = 1.05
let ladder_span = 36
let ladder_step_s = 2.5

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* One pass = fresh server from the snapshot, each warm key read once
   (so the pass meets a server whose warm jobs have finished), traffic,
   drain. *)
let serve_pass ~dir ~reads ~traffic =
  let pid = start_server ~dir in
  let stopped = ref false in
  (* If the pass fails, the server must not outlive the harness. *)
  Fun.protect
    ~finally:(fun () ->
      if not !stopped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      (match Client.connect ~socket:(socket_of dir) with
      | Ok c ->
          Array.iter (fun r -> ignore (Client.run c r)) reads;
          Client.close c
      | Error e -> failwith (Mcd_robust.Error.to_string e));
      let before = server_stats ~dir in
      let result = traffic () in
      let after = server_stats ~dir in
      stopped := true;
      let info = stop_server ~dir pid in
      (result, before, after, info))

let fresh_writes ~rng progs =
  let q = Queue.create () in
  List.iter (fun r -> Queue.push r q) (shuffle rng (write_requests progs));
  q

let pass_json ~name ~rate ~duration ~arrivals ~ops_arr ~before ~after ~info =
  let writes = Array.fold_left (fun n a -> if a.kind = "write" then n + 1 else n) 0 arrivals in
  Array.iter record ops_arr;
  Json.Obj
    [
      ("name", Json.String name);
      ("rate", Json.Float rate);
      ("duration_s", Json.Float duration);
      ("requests", Json.Int (Array.length arrivals));
      ("writes", Json.Int writes);
      ("stats_before", Json.String before);
      ("stats_after", Json.String after);
      ("server", info);
    ]

let p99_of ops_arr =
  let lat =
    Array.map (fun o -> if o.error = None then o.finish -. o.due else infinity) ops_arr
  in
  Array.sort compare lat;
  percentile lat 0.99

let serve_run ~dir ~seed ~seconds ~trace =
  sampled ();
  let progs = serve_programs () in
  List.iter Suite.register progs;
  let reads = Array.of_list (warm_requests progs) in
  let run_pass ~name ~rng ~rate ~duration traffic =
    let writes = fresh_writes ~rng progs in
    let arrivals = schedule ~rng ~rate ~duration ~reads ~writes in
    let ops_arr, before, after, info =
      serve_pass ~dir ~reads ~traffic:(fun () -> traffic arrivals)
    in
    (ops_arr, pass_json ~name ~rate ~duration ~arrivals ~ops_arr ~before ~after ~info)
  in
  let fixed_pass name duration traffic =
    run_pass ~name ~rng:(Rng.split (Rng.create seed) ~label:"fixed") ~rate:nominal_rate
      ~duration traffic
  in
  let untimed arrivals = pipelined ~dir ~kind_prefix:"" ~arrivals ~grace:30.0 in
  if not trace then
    [ ("passes", Json.List [ snd (fixed_pass "fixed" seconds untimed) ]) ]
  else begin
    let fixed_ops, untraced = fixed_pass "fixed" (seconds /. 2.0) untimed in
    let _, traced = fixed_pass "traced" (seconds /. 2.0) (fun arrivals -> phased ~dir ~arrivals) in
    (* The ladder: the highest rate on the grid that meets the p99
       limit, with unanswered and refused requests counted as missing
       it, found by binary search from the fixed pass (grid point 0)
       within [ladder_span] grid points. Every step gets a fresh server
       and one schedule per rate that does not depend on the seed, so
       runs of different seeds probe capacity the same way. *)
    let step i k =
      let rate = nominal_rate *. (ladder_step ** float_of_int k) in
      let rng = Rng.split (Rng.create 0) ~label:(Printf.sprintf "ladder-%d" k) in
      let ops_arr, j =
        run_pass ~name:(Printf.sprintf "ladder-%d" i) ~rng ~rate ~duration:ladder_step_s
          (fun arrivals -> pipelined ~dir ~kind_prefix:"ladder-" ~arrivals ~grace:p99_limit_s)
      in
      (p99_of ops_arr <= p99_limit_s, j)
    in
    let rec search i ~pass ~fail acc =
      if fail - pass <= 1 then List.rev acc
      else
        let mid = (pass + fail) / 2 in
        let ok, j = step i mid in
        if ok then search (i + 1) ~pass:mid ~fail (j :: acc)
        else search (i + 1) ~pass ~fail:mid (j :: acc)
    in
    let ladder =
      if p99_of fixed_ops <= p99_limit_s then search 0 ~pass:0 ~fail:ladder_span []
      else search 0 ~pass:(-ladder_span) ~fail:0 []
    in
    [
      ("passes", Json.List (untraced :: traced :: ladder));
      ("p99_limit_ms", Json.Float (p99_limit_s *. 1000.0));
      ("ladder_step", Json.Float ladder_step);
    ]
  end

(* --- entry points -------------------------------------------------------- *)

let setup workload ~dir =
  mkdir_p dir;
  (match workload with
  | "serve-mix" -> serve_setup ~dir
  | "plan-cold" | "feedback-exact" ->
      (* Building the scaled workloads and an empty store is all the
         batch workloads set up; the process start is part of it. *)
      ignore (if workload = "plan-cold" then plan_programs () else feedback_programs ());
      let store = fresh_store (Filename.concat dir "store-setup") in
      check "empty store objects" ~expected:0 ~observed:(fst (Store.disk_usage store));
      rm_rf (Store.dir store)
  | w -> invalid_arg ("unknown workload " ^ w));
  print_report [ ("workload", Json.String workload) ]

(* The batch workloads run fixed suite programs, so the seed does not
   change what they compute; their programs also run in a fixed order,
   as the order moves each program's time by about a tenth. *)
let run workload ~dir ~seed ~seconds ~trace =
  mkdir_p dir;
  let fields =
    match workload with
    | "plan-cold" ->
        sampled ();
        let progs = plan_programs () in
        if trace then [ ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (plan_cold_traced ~dir ~progs))) ]
        else
          let passes = repeat_passes ~seconds (plan_cold_pass ~dir ~progs ~warm:false) in
          [ ("passes", Json.List (List.map batch_pass_json passes)) ]
    | "feedback-exact" ->
        let progs = feedback_programs () in
        let pols = feedback_policies () in
        if trace then [ ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (feedback_traced ~dir ~progs ~pols))) ]
        else
          let passes = repeat_passes ~seconds (feedback_pass ~dir ~progs ~pols ~warm:false) in
          [ ("passes", Json.List (List.map batch_pass_json passes)) ]
    | "serve-mix" -> serve_run ~dir ~seed ~seconds ~trace
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  print_report
    ([ ("workload", Json.String workload); ("peak_rss_mb", Json.Float (peak_rss_mb ())) ]
    @ fields)

let pin () =
  let digests = ref [] in
  let add id bytes = digests := (id, Json.String (md5 bytes)) :: !digests in
  Store.set_default None;
  sampled ();
  List.iter
    (fun w ->
      List.iter (fun req -> add (op_id "plan-cold" w req) (Run.encode (plan_request w req))) plan_requests;
      add (op_id "plan-cold" w "plan") (Plan_io.to_string (R.plan_for w ~context:lf ~train:`Train)))
    (plan_programs ());
  R.set_sim_mode R.Exact;
  List.iter
    (fun w ->
      List.iter
        (fun (p : Policy.t) -> add (op_id "feedback-exact" w p.Policy.label) (Run.encode (R.policy_run p w)))
        (feedback_policies ()))
    (feedback_programs ());
  sampled ();
  let progs = serve_programs () in
  List.iter Suite.register progs;
  List.iter (fun r -> add (serve_id r) (Server.compute r)) (warm_requests progs @ write_requests progs);
  print_endline
    (Json.to_string
       (Json.Obj [ ("scale", Json.Int scale); ("digests", Json.Obj (List.sort compare !digests)) ]))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> opt name rest
    | [] -> failwith ("missing " ^ name)
  in
  match args with
  | [ "pin" ] -> pin ()
  | "setup" :: workload :: rest -> setup workload ~dir:(opt "--dir" rest)
  | "run" :: workload :: rest ->
      run workload ~dir:(opt "--dir" rest)
        ~seed:(int_of_string (opt "--seed" rest))
        ~seconds:(float_of_string (opt "--seconds" rest))
        ~trace:(opt "--trace" rest = "1")
  | _ ->
      prerr_endline
        "usage: harness (pin | setup WORKLOAD --dir DIR | run WORKLOAD --dir DIR \
         --seed N --seconds S --trace 0|1)";
      exit 2
