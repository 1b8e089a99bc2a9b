module Workload = Mcd_workloads.Workload
module Metrics = Mcd_power.Metrics
module Pipeline = Mcd_cpu.Pipeline
module Config = Mcd_cpu.Config
module Context = Mcd_profiling.Context
module Plan = Mcd_core.Plan
module Editor = Mcd_core.Editor
module Analyze = Mcd_core.Analyze
module Attack_decay = Mcd_control.Attack_decay
module Policy = Mcd_control.Policy
module Policies = Mcd_control.Policies
module Freq = Mcd_domains.Freq
module Ckey = Mcd_cache.Key
module Cstore = Mcd_cache.Store

type comparison = {
  degradation_pct : float;
  savings_pct : float;
  ed_improvement_pct : float;
}

let compare_runs ~baseline run =
  {
    degradation_pct = Metrics.perf_degradation_pct ~baseline run;
    savings_pct = Metrics.energy_savings_pct ~baseline run;
    ed_improvement_pct = Metrics.ed_improvement_pct ~baseline run;
  }

let default_slowdown_pct = 7.0

let config = Config.alpha21264_like

type profiled_run = {
  run : Metrics.run;
  plan : Plan.t Lazy.t;
  counters : Editor.counters;
}

(* --- simulation mode --------------------------------------------------- *)

module Sampler = Mcd_cpu.Sampler

type sim_mode = Exact | Sampled of Sampler.params

(* Mutable configuration, like [jobs] below: the bench/CLI drivers set
   it once at startup and every entry point inherits it without
   threading a parameter through each signature. Worker domains read
   the same ref. *)
let sim_mode = ref Exact
let set_sim_mode m = sim_mode := m
let get_sim_mode () = !sim_mode

let sampling () = match !sim_mode with Exact -> None | Sampled p -> Some p

(* Sampled results are different objects from exact ones: production
   run keys grow a ("sim", ...) part, so the two modes never serve each
   other's numbers, in the store or in the memo. In [Exact] mode the
   part is absent — exact keys are byte-identical to what they were
   before sampling existed. Plans and oracle analyses are always
   computed exactly, so their keys never carry it. *)
let sim_parts () =
  match !sim_mode with
  | Exact -> []
  | Sampled p -> [ ("sim", "sampled:" ^ Sampler.params_id p) ]

(* --- the memo ------------------------------------------------------------ *)

(* One process-wide memo, keyed by the canonical line of the key the
   persistent store files the same result under: that line already
   names the workload, configuration, method with all its parameters
   and (for modal runs) the simulation mode, so no second, hand-built
   memo identity can drift from it. Worker domains of [par_map] share
   it, so a result outlives the domain that computed it. The mutex
   guards only the find and the add, never a computation: two domains
   that miss on one key both compute it (results are deterministic per
   key) and the second add wins harmlessly.

   Below the memo sits the optional persistent content-addressed store
   ({!Mcd_cache.Store.default}): the memo dies with the process, the
   store survives it, so a warm rerun skips simulation entirely. *)
type entry =
  | Memo_run of Metrics.run
  | Memo_profiled of Metrics.run * Editor.counters
  | Memo_plan of Plan.t
  | Memo_oracle of Mcd_core.Oracle.analysis

let memo : (string, entry) Hashtbl.t = Hashtbl.create 64
let memo_lock = Mutex.create ()
let clear_caches () = Mutex.protect memo_lock (fun () -> Hashtbl.reset memo)

(* Memo, then store (when one is configured; a cache problem of any
   kind degrades to plain recomputation inside [Cstore.cached]), then
   [f]. [unwrap] projects the entry kind a key of this kind holds. *)
let cached ~key ~wrap ~unwrap ~encode ~decode f =
  let line = Ckey.canonical key in
  match
    Option.bind
      (Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo line))
      unwrap
  with
  | Some v -> v
  | None ->
      let v =
        match Cstore.default () with
        | None -> f ()
        | Some store -> Cstore.cached store ~key ~encode ~decode f
      in
      Mutex.protect memo_lock (fun () -> Hashtbl.replace memo line (wrap v));
      v

(* Concurrency of the experiment fan-out. Mutable configuration rather
   than a parameter so every figure/table module inherits it without
   threading [?jobs] through each signature; set once at startup by the
   bench/CLI drivers. *)
let jobs = ref 1
let set_jobs n = jobs := max 1 n
let get_jobs () = !jobs

let par_map f xs = Mcd_util.Par.map ~jobs:!jobs f xs
let map_workloads f ws = par_map f ws

(* --- shared analysis-window derivation --------------------------------- *)

(* One derivation for every consumer (plan_for, load_plan, Tables's
   coverage table, the CLI's tree command): the profiler walks
   [analysis_profile_insts] instructions to build the call tree, and the
   timing trace behind a plan covers at most 120_000 of the training
   window. Divergent copies of these constants are precisely how plan
   files stop round-tripping. *)
let analysis_profile_insts = 400_000

let analysis_input (w : Workload.t) ~train =
  match train with
  | `Train -> (w.Workload.train, w.Workload.train_window)
  | `Reference -> (w.Workload.reference, w.Workload.ref_window)

let analysis_trace_insts (w : Workload.t) ~train =
  let _, window = analysis_input w ~train in
  min window 120_000

(* Full profiler walks are the warm-path tax S1 of PR 7 removes: the
   counter lets tests pin that a warm disk hit performs none. *)
let profiler_walk_count = Atomic.make 0
let profiler_walks () = Atomic.get profiler_walk_count

let training_tree ?threshold (w : Workload.t) ~context ~train =
  Atomic.incr profiler_walk_count;
  let input, _ = analysis_input w ~train in
  Mcd_profiling.Call_tree.build w.Workload.program ~input ~context ?threshold
    ~max_insts:analysis_profile_insts ()

(* --- persistent cache keys ----------------------------------------------- *)

let base_parts (w : Workload.t) ~config ~input =
  Ckey.program_fragment w.Workload.program ~input
  @ Ckey.input_fragment input
  @ Ckey.config_fragment config
  @ Ckey.freq_fragment ()

(* A production run is identified by everything the simulator sees: the
   program (at the reference input), the input itself, the processor
   configuration, the frequency grid, the measurement window, and the
   method driving reconfiguration (with all its parameters). Runs that
   are exact in every mode (see [exact_only]) pass [~modal:false] to
   drop the ("sim", ...) part: their one result serves both modes. *)
let run_key ~modal (w : Workload.t) ~config ~policy ~params =
  Ckey.make ~kind:"run"
    ~parts:
      (base_parts w ~config ~input:w.Workload.reference
      @ [
          ("warmup", string_of_int w.Workload.ref_offset);
          ("window", string_of_int w.Workload.ref_window);
        ]
      @ Ckey.policy_fragment ~name:policy ~params
      @ if modal then sim_parts () else [])

(* Analysis knobs (long-running threshold, shaker pass budget) key the
   plan only when overridden, so the default-knob key stays byte-
   identical to what every non-ablation caller always used — an
   ablation's default point reads the object the headline experiments
   already wrote. The processor configuration is inside [base_parts],
   so a narrow-core plan separates for free. *)
let default_shaker_passes = 24

let plan_key ?(threshold_insts = Mcd_profiling.Call_tree.default_threshold)
    ?(shaker_passes = default_shaker_passes) ?(config = config)
    ?(slowdown_pct = default_slowdown_pct) (w : Workload.t) ~context ~train =
  let input, _ = analysis_input w ~train in
  Ckey.make ~kind:"plan"
    ~parts:
      (base_parts w ~config ~input
      @ [
          ("context", context.Context.name);
          ("slowdown", Printf.sprintf "%h" slowdown_pct);
          ("profile_insts", string_of_int analysis_profile_insts);
          ("trace_insts", string_of_int (analysis_trace_insts w ~train));
        ]
      @ (if threshold_insts <> Mcd_profiling.Call_tree.default_threshold then
           [ ("threshold", string_of_int threshold_insts) ]
         else [])
      @
      if shaker_passes <> default_shaker_passes then
        [ ("shaker", string_of_int shaker_passes) ]
      else [])

let oracle_key ?(config = config) (w : Workload.t) =
  Ckey.make ~kind:"oracle"
    ~parts:
      (base_parts w ~config ~input:w.Workload.reference
      @ [
          ( "interval_insts",
            string_of_int Mcd_core.Oracle.default_interval_insts );
          ( "trace_insts",
            string_of_int (w.Workload.ref_offset + w.Workload.ref_window) );
        ])

(* --- the analyses ---------------------------------------------------------- *)

(* Plans are stored in the Plan_io text format. Decoding rebuilds the
   training tree (cheap: a profiler walk, no timing simulation) and
   refuses — i.e. reports corruption, triggering recompute — if the
   stored plan does not round-trip cleanly against it. *)
let decode_plan ~threshold (w : Workload.t) ~context ~train payload =
  let tree = training_tree ~threshold w ~context ~train in
  match Mcd_core.Plan_io.of_string_result ~path:"<cache>" ~tree payload with
  | Result.Ok { Mcd_core.Plan_io.plan; warnings = [] } -> Result.Ok plan
  | Result.Ok { Mcd_core.Plan_io.warnings = errors; _ } | Result.Error errors ->
      Result.Error
        (String.concat "; " (List.map Mcd_robust.Error.to_string errors))

(* The plan segment of an experiment: profiling walk + traced training
   run + shaker, cached independently of the production runs that
   consume the result, so an ablation that only perturbs the production
   side (or a knob that only perturbs the analysis side) recomputes one
   segment instead of the whole pipeline. Plans are always computed
   exactly — sampling never touches analysis quality. *)
let analyzed_plan ?(threshold_insts = Mcd_profiling.Call_tree.default_threshold)
    ?(shaker_passes = default_shaker_passes) ?(config = config)
    ?(slowdown_pct = default_slowdown_pct) (w : Workload.t) ~context ~train =
  cached
    ~key:
      (plan_key ~threshold_insts ~shaker_passes ~config ~slowdown_pct w
         ~context ~train)
    ~wrap:(fun p -> Memo_plan p)
    ~unwrap:(function Memo_plan p -> Some p | _ -> None)
    ~encode:Mcd_core.Plan_io.to_string
    ~decode:(decode_plan ~threshold:threshold_insts w ~context ~train)
  @@ fun () ->
  let input, _ = analysis_input w ~train in
  let plan, _stats =
    Analyze.analyze ~program:w.Workload.program ~train:input ~context
      ~slowdown_pct ~threshold_insts ~shaker_passes
      ~trace_insts:(analysis_trace_insts w ~train)
      ~config ()
  in
  plan

let plan_for (w : Workload.t) ~context ~train = analyzed_plan w ~context ~train

(* The result path for shipped plans: rebuild the profiling tree from
   exactly the derivation Analyze/plan_for use ({!training_tree}), then
   load with typed diagnostics instead of exceptions. [train] selects
   which input the plan was trained on (shipped plans are normally
   [`Train]; [`Reference]-trained plans come from the oracle
   configuration). *)
let load_plan ?(train = `Train) (w : Workload.t) ~context ~path =
  let tree = training_tree w ~context ~train in
  Mcd_core.Plan_io.load_result ~path ~tree

let oracle_analysis ~config (w : Workload.t) =
  cached ~key:(oracle_key ~config w)
    ~wrap:(fun a -> Memo_oracle a)
    ~unwrap:(function Memo_oracle a -> Some a | _ -> None)
    ~encode:Mcd_core.Oracle.encode_analysis
    ~decode:Mcd_core.Oracle.decode_analysis
  @@ fun () ->
  Mcd_core.Oracle.analyze ~program:w.Workload.program
    ~input:w.Workload.reference
    ~trace_insts:(w.Workload.ref_offset + w.Workload.ref_window)
    ~config ()

(* --- methods --------------------------------------------------------------- *)

type method_ =
  | Policy of Policy.t
  | Offline of { slowdown_pct : float }
  | Profile of {
      context : Context.t;
      train : [ `Train | `Reference ];
      slowdown_pct : float;
    }
  | Plan of Plan.t

let input_tag = function `Train -> "train" | `Reference -> "ref"

(* The (re-thresholded) plan a profile method edits the program with. *)
let profile_plan ~config (w : Workload.t) ~context ~train ~slowdown_pct =
  let base = analyzed_plan ~config w ~context ~train in
  if slowdown_pct = default_slowdown_pct then base
  else Plan.with_slowdown base ~slowdown_pct

let plan_digest plan =
  Digest.to_hex (Digest.string (Mcd_core.Plan_io.to_string plan))

(* Every method is simulated under the global [sim_mode] except
   feedback policies, which always run exactly: a cycle-driven feedback
   loop (attack/decay, PID, cache-aware, util-prop all read queue
   occupancy or miss counters every interval) cannot observe skipped
   instances — under sampling it reacts to a sparse, unrepresentative
   subsequence of intervals and its frequency trajectory diverges from
   the exact run by tens of points. Feed-forward methods (baseline,
   fixed, offline, profile, explicit plans) react to the marker stream,
   which sampling preserves, so they sample safely. Because a feedback
   result is mode-independent, so is its key: a sampled bench pass
   reuses the on-line runs the exact pass already cached. *)
let exact_only = function
  | Policy p -> p.Policy.feedback
  | Offline _ | Profile _ | Plan _ -> false

(* The key names the method as a (name, params) policy fragment: a
   registry policy by its own identity, the built-in methods by the
   spellings their cached objects have always carried (an explicit plan
   by its content digest, so ablation points sharing a plan share one
   cached run). *)
let key ?(config = config) m (w : Workload.t) =
  let policy, params =
    match m with
    | Policy p -> (p.Policy.name, p.Policy.params)
    | Offline { slowdown_pct } ->
        ( "offline",
          [
            Ckey.float_param slowdown_pct;
            string_of_int Mcd_core.Oracle.default_interval_insts;
          ] )
    | Profile { context; train; slowdown_pct } ->
        ( "profile",
          [
            context.Context.name;
            input_tag train;
            Ckey.float_param slowdown_pct;
            string_of_int analysis_profile_insts;
            string_of_int (analysis_trace_insts w ~train);
          ] )
    | Plan plan -> ("plan", [ plan_digest plan ])
  in
  run_key ~modal:(not (exact_only m)) w ~config ~policy ~params

(* A fresh single-use controller for one run of [m], with the editor
   counters it fills (zero unless the method edits the program per a
   plan). *)
let controller ?sink ~config m (w : Workload.t) =
  let edited plan =
    let e = Editor.edit plan in
    (e.Editor.controller, e.Editor.counters)
  in
  let unedited c = (c, { Editor.reconfig_execs = 0; instr_execs = 0 }) in
  match m with
  | Policy p -> unedited (p.Policy.create ?sink ())
  | Offline { slowdown_pct } ->
      unedited
        (Mcd_core.Oracle.policy
           (Mcd_core.Oracle.schedule_of (oracle_analysis ~config w)
              ~slowdown_pct))
  | Profile { context; train; slowdown_pct } ->
      edited (profile_plan ~config w ~context ~train ~slowdown_pct)
  | Plan plan -> edited plan

(* A traced run is always exact: the sink must see every interval, and
   a sampled run fast-forwards most of them. *)
let simulate ?sink ~config m (w : Workload.t) =
  let controller, counters = controller ?sink ~config m w in
  let sampling =
    if Option.is_some sink || exact_only m then None else sampling ()
  in
  let run =
    Pipeline.run ~controller ?sink ?sampling ~config
      ~warmup_insts:w.Workload.ref_offset ~program:w.Workload.program
      ~input:w.Workload.reference ~max_insts:w.Workload.ref_window ()
  in
  (run, counters)

(* A profiled run's payload is the run plus the editor counters; the
   plan itself is recovered through [plan_for]'s own cache, so it is
   not duplicated in every profiled-run object. Every other method
   stores the bare {!Metrics.encode} bytes. *)
let encode_profiled (run, (c : Editor.counters)) =
  Printf.sprintf "profiled 1\nreconfig_execs %d\ninstr_execs %d\n%s"
    c.Editor.reconfig_execs c.Editor.instr_execs (Metrics.encode run)

let decode_profiled payload =
  let ( let* ) = Result.bind in
  let int_field name line =
    match String.split_on_char ' ' line with
    | [ n; v ] when n = name -> (
        match int_of_string_opt v with
        | Some v -> Result.Ok v
        | None -> Result.Error (Printf.sprintf "bad %s value %S" name v))
    | _ -> Result.Error (Printf.sprintf "expected %S line, got %S" name line)
  in
  match String.split_on_char '\n' payload with
  | "profiled 1" :: reconfig :: instr :: (_ :: _ as rest) ->
      let* reconfig_execs = int_field "reconfig_execs" reconfig in
      let* instr_execs = int_field "instr_execs" instr in
      let* run = Metrics.decode (String.concat "\n" rest) in
      Result.Ok (run, { Editor.reconfig_execs; instr_execs })
  | "profiled 1" :: _ -> Result.Error "truncated profiled payload"
  | _ -> Result.Error "bad profiled header"

let profiled ~config m (w : Workload.t) =
  cached ~key:(key ~config m w)
    ~wrap:(fun (r, c) -> Memo_profiled (r, c))
    ~unwrap:(function Memo_profiled (r, c) -> Some (r, c) | _ -> None)
    ~encode:encode_profiled ~decode:decode_profiled
    (fun () -> simulate ~config m w)

(* A traced run is never memoised (the sink is a side channel — a cached
   Metrics.run would leave it empty), and its end-of-run aggregates are
   mirrored into the sink's registry as gauges so an exported
   metrics.jsonl is self-contained. *)
let traced ~sink ~config m (w : Workload.t) =
  let run, _ = simulate ~sink ~config m w in
  let g name v =
    Mcd_obs.Metrics.set (Mcd_obs.Metrics.gauge (Mcd_obs.Sink.metrics sink) name) v
  in
  g "run.runtime_ps" (float_of_int run.Metrics.runtime_ps);
  g "run.energy_pj" run.Metrics.energy_pj;
  g "run.instructions" (float_of_int run.Metrics.instructions);
  g "run.cycles_front" (float_of_int run.Metrics.cycles_front);
  g "run.sync_crossings" (float_of_int run.Metrics.sync_crossings);
  g "run.sync_penalties" (float_of_int run.Metrics.sync_penalties);
  g "run.reconfigurations" (float_of_int run.Metrics.reconfigurations);
  run

let run ?(config = config) ?sink m w =
  match (sink, m) with
  | Some sink, _ -> traced ~sink ~config m w
  | None, Profile _ -> fst (profiled ~config m w)
  | None, (Policy _ | Offline _ | Plan _) ->
      cached ~key:(key ~config m w)
        ~wrap:(fun r -> Memo_run r)
        ~unwrap:(function Memo_run r -> Some r | _ -> None)
        ~encode:Metrics.encode ~decode:Metrics.decode
        (fun () -> fst (simulate ~config m w))

let method_of_label ?(context = Context.lf)
    ?(slowdown_pct = default_slowdown_pct) = function
  | "offline" -> Ok (Offline { slowdown_pct })
  | "profile" -> Ok (Profile { context; train = `Train; slowdown_pct })
  | label -> (
      match Policies.by_name label with
      | Some p -> Ok (Policy p)
      | None ->
          Error
            (Printf.sprintf "unknown policy %S (offline, profile, or a registry \
                             label: %s)"
               label
               (String.concat ", " (Policies.names ()))))

(* --- the named entry points ------------------------------------------------ *)

let config_baseline ?config w = run ?config (Policy Policies.baseline) w
let baseline w = config_baseline w
let single_clock w ~mhz = config_baseline ~config:(Config.single_clock ~mhz) w
let plan_run ?config w ~plan = run ?config (Plan plan) w
let offline_run ?(slowdown_pct = default_slowdown_pct) w =
  run (Offline { slowdown_pct }) w
let policy_run p w = run (Policy p) w
let policy_key p w = key (Policy p) w
let online_run ?params w = policy_run (Attack_decay.policy ?params ()) w

(* The plan is rebuilt per call, never stored in the shared memo: a lazy
   value two domains force at once raises [Lazy.Undefined]. Forcing it
   goes through [plan_for]'s cache, so a warm disk hit that never reads
   the plan never pays its profiler walk. *)
let profile_run ?(slowdown_pct = default_slowdown_pct) w ~context ~train =
  let run, counters =
    profiled ~config (Profile { context; train; slowdown_pct }) w
  in
  { run; plan = lazy (profile_plan ~config w ~context ~train ~slowdown_pct); counters }

(* The paper's "global" bar: a single-clock processor scaled so that its
   total runtime matches the off-line algorithm's. A first-order 1/f
   estimate seeds the search; the chosen frequency is the slowest step
   whose runtime still meets the target (or fmax when nothing does). *)
let global_dvs_run (w : Workload.t) ~target_runtime_ps =
  let full = single_clock w ~mhz:Freq.fmax_mhz in
  let estimate =
    float_of_int Freq.fmax_mhz
    *. float_of_int full.Metrics.runtime_ps
    /. float_of_int (max 1 target_runtime_ps)
  in
  let start_mhz = Freq.clamp (int_of_float estimate) in
  let run_at mhz = single_clock w ~mhz in
  let meets mhz = (run_at mhz).Metrics.runtime_ps <= target_runtime_ps in
  (* walk up until the target is met (the 1/f estimate can land low) *)
  let rec up mhz =
    if meets mhz || mhz >= Freq.fmax_mhz then mhz
    else up (Freq.clamp (mhz + Freq.step_mhz))
  in
  let mhz0 = up start_mhz in
  (* then walk down while a lower step still meets it: the estimate can
     just as well land several steps high, and stopping after a single
     probe would report a faster (less energy-efficient) frequency than
     the scaling target permits *)
  let rec down mhz =
    if mhz <= Freq.fmin_mhz then mhz
    else
      let lower = Freq.clamp (mhz - Freq.step_mhz) in
      if meets lower then down lower else mhz
  in
  let final_mhz = if meets mhz0 then down mhz0 else mhz0 in
  (run_at final_mhz, final_mhz)
