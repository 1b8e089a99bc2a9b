(** Memoized execution of (benchmark x method) simulations.

    Every figure compares methods against the MCD baseline on the
    reference input; the same runs feed several figures, so results are
    cached. All analyses profile on the training input except the
    off-line oracle, which — exactly as in the paper — is the same
    pipeline given the production run as its "prior identical run".

    There is one run path: a {!method_} names what drives
    reconfiguration, {!key} is the one identity its result is cached
    under, and {!run} simulates it. The result is memoised in one
    process-wide table keyed by {!Mcd_cache.Key.canonical} of that key,
    shared by every domain, and read through the persistent store
    ({!Mcd_cache.Store.default}) when one is configured. The named entry
    points ({!baseline}, {!offline_run}, {!policy_run}, ...) are thin
    calls into {!run} and {!key}. *)

type comparison = {
  degradation_pct : float;
  savings_pct : float;
  ed_improvement_pct : float;
}

val compare_runs :
  baseline:Mcd_power.Metrics.run -> Mcd_power.Metrics.run -> comparison

val set_jobs : int -> unit
(** Number of OCaml domains the experiment sweeps fan out over
    (default 1 = fully sequential; values below 1 are clamped to 1).
    Simulation results are deterministic per workload and
    {!map_workloads} preserves input order, so any jobs count produces
    byte-identical tables. *)

val get_jobs : unit -> int

val par_map : ('a -> 'b) -> 'a list -> 'b list
(** [Mcd_util.Par.map] at the configured jobs count, preserving input
    order. Worker domains share the process-wide memo, so a result a
    worker computes outlives it. *)

val map_workloads :
  (Mcd_workloads.Workload.t -> 'a) -> Mcd_workloads.Workload.t list -> 'a list
(** {!par_map} — named entry point for the common per-benchmark
    fan-out. *)

val default_slowdown_pct : float
(** 7.0, the paper's headline operating point. *)

(** {2 Simulation mode}

    Production runs execute either exactly or under
    {!Mcd_cpu.Sampler} phase sampling. The mode is process-wide
    configuration like {!set_jobs}: the bench/CLI drivers set it once.
    Sampled results are cached under distinct keys (a ["sim"] part on
    the key, which the memo shares), so the two modes never serve each
    other's numbers — and in [Exact] mode every key is byte-identical
    to the pre-sampling layout. Plan and oracle analyses are always
    computed exactly. So are feedback policies such as the on-line
    attack/decay controller: a cycle-driven feedback loop cannot
    observe skipped instances and diverges under sampling, so it runs
    exactly in every mode and keeps mode-independent keys — a sampled
    pass reuses on-line results the exact pass already cached. *)

type sim_mode = Exact | Sampled of Mcd_cpu.Sampler.params

val set_sim_mode : sim_mode -> unit
val get_sim_mode : unit -> sim_mode

val profiler_walks : unit -> int
(** Number of full profiler walks ({!training_tree} calls — plan cache
    decodes, plan loads, coverage tables) performed by this process so
    far. Warm-path regression tests pin that a disk hit performs
    none. *)

val analysis_profile_insts : int
(** 400_000: the instruction window every profiler walk (plan analysis,
    plan loading, coverage tables, the CLI's tree command) uses to build
    call trees. A single shared constant — divergent copies are how
    saved plans stop matching their rebuilt trees. *)

val analysis_input :
  Mcd_workloads.Workload.t ->
  train:[ `Train | `Reference ] ->
  Mcd_isa.Program.input * int
(** The (input, window) pair an analysis over the given training
    selector sees. *)

val analysis_trace_insts :
  Mcd_workloads.Workload.t -> train:[ `Train | `Reference ] -> int
(** Instructions the timing trace behind a plan covers:
    [min window 120_000] of the selected input, exactly as
    {!plan_for} passes to the analyzer. *)

val training_tree :
  ?threshold:int ->
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  train:[ `Train | `Reference ] ->
  Mcd_profiling.Call_tree.t
(** Rebuild the profiling call tree for the selected training input with
    the shared window derivation — the tree {!load_plan} verifies plan
    fingerprints against. [threshold] (default
    {!Mcd_profiling.Call_tree.default_threshold}) is the long-running
    cutoff, overridden by threshold-ablation plans. *)

(** {2 Analyses} *)

val analyzed_plan :
  ?threshold_insts:int ->
  ?shaker_passes:int ->
  ?config:Mcd_cpu.Config.t ->
  ?slowdown_pct:float ->
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  train:[ `Train | `Reference ] ->
  Mcd_core.Plan.t
(** The analysis {e segment} of an experiment — profiling walk, traced
    training run, shaker, thresholding — cached on {!plan_key}:
    workload x config x analysis knobs, with knob parts present only
    when overridden so the all-defaults key is byte-identical to
    {!plan_for}'s. An ablation that perturbs one knob recomputes this
    segment only; production runs are keyed separately ({!key}).
    Always computed exactly, independent of the simulation mode. *)

val plan_key :
  ?threshold_insts:int ->
  ?shaker_passes:int ->
  ?config:Mcd_cpu.Config.t ->
  ?slowdown_pct:float ->
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  train:[ `Train | `Reference ] ->
  Mcd_cache.Key.t
(** The key {!analyzed_plan} caches under. *)

val plan_for :
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  train:[ `Train | `Reference ] ->
  Mcd_core.Plan.t
(** {!analyzed_plan} with every knob at its default ({!default_slowdown_pct}).
    [`Reference] training is the off-line oracle. *)

val oracle_key : ?config:Mcd_cpu.Config.t -> Mcd_workloads.Workload.t -> Mcd_cache.Key.t
(** The key the interval-based off-line oracle's analysis
    ({!Mcd_core.Oracle}) of the production run is cached under. *)

val load_plan :
  ?train:[ `Train | `Reference ] ->
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  path:string ->
  (Mcd_core.Plan_io.loaded, Mcd_robust.Error.t list) result
(** Load a previously shipped plan against a freshly rebuilt training
    tree ({!training_tree}; [train] defaults to [`Train]), reporting
    typed diagnostics rather than raising — the entry point the CLI and
    the robustness campaign use. Because the tree derivation is shared
    with {!plan_for}, a plan saved from [plan_for w ~context ~train]
    always round-trips warning-free. *)

(** {2 Methods} *)

type method_ =
  | Policy of Mcd_control.Policy.t
      (** a registry policy, the MCD baseline ({!Mcd_control.Policies.baseline})
          and on-line attack/decay included *)
  | Offline of { slowdown_pct : float }
      (** the interval-based off-line oracle: analyse the production run
          with perfect knowledge, play the per-interval schedule back *)
  | Profile of {
      context : Mcd_profiling.Context.t;
      train : [ `Train | `Reference ];
      slowdown_pct : float;
    }
      (** edit per the (re-thresholded) plan {!plan_for} derives *)
  | Plan of Mcd_core.Plan.t  (** edit per an explicit plan *)

val method_of_label :
  ?context:Mcd_profiling.Context.t ->
  ?slowdown_pct:float ->
  string ->
  (method_, string) result
(** The one method-label parser: [offline], [profile] (trained on
    [`Train] in [context], default L+F) or any
    {!Mcd_control.Policies} registry label ([baseline], [online], ...).
    [slowdown_pct] (default {!default_slowdown_pct}) applies to
    [offline] and [profile]; the other methods ignore both
    parameters, so equivalent requests derive one {!key}. *)

val key :
  ?config:Mcd_cpu.Config.t -> method_ -> Mcd_workloads.Workload.t -> Mcd_cache.Key.t
(** The one identity of a production run: workload, configuration
    (default: the Table-1 core), measurement window, the method with
    all its parameters (a registry policy's canonical
    {!Mcd_cache.Key.policy_fragment}, an explicit plan's content digest)
    and, unless the method is a feedback policy, the simulation mode.
    The store files the result under it, the memo keys on its canonical
    line, and the experiment service digests it for coalescing. *)

val run :
  ?config:Mcd_cpu.Config.t ->
  ?sink:Mcd_obs.Sink.t ->
  method_ ->
  Mcd_workloads.Workload.t ->
  Mcd_power.Metrics.run
(** Simulate the reference input under the method with a fresh
    controller. Without a [sink] the result is memoised and cached
    under {!key}. With a [sink] the run is traced and never cached (a
    memoised result would leave the sink empty): it runs exactly, and
    interval samples, reconfiguration/decision/sync events,
    frequency-residency histograms and the end-of-run aggregates (as
    [run.*] gauges) land in the sink. A traced run returns the same
    {!Mcd_power.Metrics.encode} bytes as the exact memoised one. *)

(** {2 Named entry points} *)

val baseline : Mcd_workloads.Workload.t -> Mcd_power.Metrics.run
(** MCD, all domains at full speed, reference input. *)

val config_baseline :
  ?config:Mcd_cpu.Config.t -> Mcd_workloads.Workload.t -> Mcd_power.Metrics.run
(** {!baseline} at an explicit processor configuration — the
    narrow-core ablation's baseline segment. *)

val single_clock : Mcd_workloads.Workload.t -> mhz:int -> Mcd_power.Metrics.run
(** Globally synchronous run at [mhz]. *)

val plan_run :
  ?config:Mcd_cpu.Config.t ->
  Mcd_workloads.Workload.t ->
  plan:Mcd_core.Plan.t ->
  Mcd_power.Metrics.run
(** The production {e segment} under an explicit plan. Keyed by the
    plan's content digest, so ablation points whose knob did not change
    the plan share one cached run. *)

val offline_run :
  ?slowdown_pct:float -> Mcd_workloads.Workload.t -> Mcd_power.Metrics.run
(** The off-line oracle at [slowdown_pct] (default
    {!default_slowdown_pct}). *)

type profiled_run = {
  run : Mcd_power.Metrics.run;
  plan : Mcd_core.Plan.t Lazy.t;
      (** Rebuilt per call. Forcing it on a warm disk hit decodes the
          cached plan — a decode that rebuilds the training call tree
          (one full profiler walk). Consumers that only need [run]
          never pay it. *)
  counters : Mcd_core.Editor.counters;
}

val profile_run :
  ?slowdown_pct:float ->
  Mcd_workloads.Workload.t ->
  context:Mcd_profiling.Context.t ->
  train:[ `Train | `Reference ] ->
  profiled_run
(** {!run} of the profile method, with its plan and editor counters. *)

val policy_run :
  Mcd_control.Policy.t -> Mcd_workloads.Workload.t -> Mcd_power.Metrics.run
(** {!run} of a registry policy. *)

val policy_key :
  Mcd_control.Policy.t -> Mcd_workloads.Workload.t -> Mcd_cache.Key.t
(** {!key} of a registry policy. *)

val online_run :
  ?params:Mcd_control.Attack_decay.params -> Mcd_workloads.Workload.t ->
  Mcd_power.Metrics.run
(** {!policy_run} of {!Mcd_control.Attack_decay.policy}. *)

val global_dvs_run :
  Mcd_workloads.Workload.t -> target_runtime_ps:int -> Mcd_power.Metrics.run * int
(** Single-clock processor scaled to finish in approximately
    [target_runtime_ps] (the paper's "global" baseline): picks the
    slowest frequency step whose runtime still meets the target, or
    full speed when even that cannot. Returns the run and the chosen
    frequency. *)

val clear_caches : unit -> unit
(** Empty the process-wide memo, every domain's entries included. The
    persistent store (if {!Mcd_cache.Store.default} is configured) is
    deliberately untouched: clearing the memo then re-running is
    exactly the warm-cache path. *)
