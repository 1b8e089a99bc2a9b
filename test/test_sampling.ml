(* Phase-sampled simulation: differential accuracy vs exact, sampled
   determinism, a pinned golden, and the warm-path regression batch
   (lazy plan decode, geomean guard, slowdown memo keys). *)

module B = Mcd_isa.Build
module P = Mcd_isa.Program
module Pipeline = Mcd_cpu.Pipeline
module Sampler = Mcd_cpu.Sampler
module Config = Mcd_cpu.Config
module Metrics = Mcd_power.Metrics
module Runner = Mcd_experiments.Runner
module Context = Mcd_profiling.Context

let qcheck ?(seed = 0x5a39) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
module Suite = Mcd_workloads.Suite
module Workload = Mcd_workloads.Workload
module Store = Mcd_cache.Store
module Stats = Mcd_util.Stats
module Controller = Mcd_cpu.Controller
module Reconfig = Mcd_domains.Reconfig
module Walker = Mcd_isa.Walker

let test_input = { P.input_name = "s"; scale = 1; divergence = 0.0; seed = 11 }

(* A phase-structured program: a kernel of ~2.4k instructions invoked
   many times from a driver loop — exactly the shape the sampler is
   built to exploit. *)
let phased_program ?(calls = 40) ?(fp = 0.0) () =
  B.program ~name:"phased" @@ fun b ->
  B.func b "kernel"
    [
      B.loop b (P.Const 10)
        [ B.straight b ~length:240 ~frac_load:0.2 ~frac_fp_alu:fp () ];
    ];
  B.func b "main" [ B.loop b (P.Const calls) [ B.call b "kernel" ] ];
  "main"

let run_phased ?sampling ?sampler_report ?(max_insts = 80_000) ?(fp = 0.0) () =
  Pipeline.run ?sampling ?sampler_report ~config:Config.alpha21264_like
    ~program:(phased_program ~fp ())
    ~input:test_input ~max_insts ()

let rel a b =
  Float.abs (a -. b) /. Float.max 1e-9 (Float.max (Float.abs a) (Float.abs b))

let test_sampler_skips_phases () =
  let report = ref None in
  let exact = run_phased () in
  let sampled =
    run_phased ~sampling:Sampler.default_params ~sampler_report:report ()
  in
  let r =
    match !report with
    | Some r -> r
    | None -> Alcotest.fail "no sampler report"
  in
  Alcotest.(check bool) "skipped instances" true (r.Sampler.skipped_instances > 0);
  Alcotest.(check bool)
    "most instructions extrapolated" true
    (r.Sampler.skipped_insts > 40_000);
  Alcotest.(check int) "window still filled" exact.Metrics.instructions
    sampled.Metrics.instructions;
  Alcotest.(check bool) "runtime close" true
    (rel (float_of_int exact.Metrics.runtime_ps)
       (float_of_int sampled.Metrics.runtime_ps)
    < 0.10);
  Alcotest.(check bool) "energy close" true
    (rel exact.Metrics.energy_pj sampled.Metrics.energy_pj < 0.10)

(* The sampler is deterministic: a sampled run is a pure function of
   (program, input, params), byte-identical across repeats. *)
let test_sampled_deterministic () =
  let a = run_phased ~sampling:Sampler.default_params () in
  let b = run_phased ~sampling:Sampler.default_params () in
  Alcotest.(check string) "sampled runs byte-identical" (Metrics.encode a)
    (Metrics.encode b)

(* Real-workload differential: sampling must stay within a few percent
   of the exact run on actual suite members, with no unstable
   signatures and a substantial extrapolated fraction. (adpcm and gsm
   are the two cheapest exact runs; the full five-benchmark sweep runs
   in the bench's --sample drift columns.) *)
let test_workload_drift_bounded () =
  List.iter
    (fun name ->
      let w = Suite.by_name name in
      let report = ref None in
      let run sampling =
        Pipeline.run ?sampling ~sampler_report:report
          ~config:Config.alpha21264_like ~warmup_insts:w.Workload.ref_offset
          ~program:w.Workload.program ~input:w.Workload.reference
          ~max_insts:w.Workload.ref_window ()
      in
      let exact = run None in
      let sampled = run (Some Sampler.default_params) in
      let r =
        match !report with
        | Some r -> r
        | None -> Alcotest.fail "no sampler report"
      in
      Printf.printf
        "%-14s rec=%d skip=%d insts=%d/%d unstable=%d drift_rt=%+.2f%% \
         drift_e=%+.2f%%\n%!"
        name r.Sampler.recorded_instances r.Sampler.skipped_instances
        r.Sampler.skipped_insts w.Workload.ref_window
        r.Sampler.unstable_signatures
        (100.
        *. float_of_int (sampled.Metrics.runtime_ps - exact.Metrics.runtime_ps)
        /. float_of_int exact.Metrics.runtime_ps)
        (100.
        *. (sampled.Metrics.energy_pj -. exact.Metrics.energy_pj)
        /. exact.Metrics.energy_pj);
      Alcotest.(check bool) (name ^ ": no unstable signatures") true
        (r.Sampler.unstable_signatures = 0);
      Alcotest.(check bool) (name ^ ": extrapolates a third of the window")
        true
        (3 * r.Sampler.skipped_insts > w.Workload.ref_window);
      Alcotest.(check bool) (name ^ ": runtime drift < 5%") true
        (rel
           (float_of_int exact.Metrics.runtime_ps)
           (float_of_int sampled.Metrics.runtime_ps)
        < 0.05);
      Alcotest.(check bool) (name ^ ": energy drift < 5%") true
        (rel exact.Metrics.energy_pj sampled.Metrics.energy_pj < 0.05))
    [ "adpcm decode"; "gsm encode" ]

(* Pinned golden: the sampled metrics of one real workload, exact to
   the picosecond. A failure here means the sampling layer's output
   changed — re-pin only for a deliberate algorithm change, never to
   absorb an accidental one. *)
let test_golden_sampled_metrics () =
  let w = Suite.by_name "adpcm decode" in
  let m =
    Pipeline.run ~sampling:Sampler.default_params
      ~config:Config.alpha21264_like ~warmup_insts:w.Workload.ref_offset
      ~program:w.Workload.program ~input:w.Workload.reference
      ~max_insts:w.Workload.ref_window ()
  in
  Alcotest.(check int) "instructions" 120_000 m.Metrics.instructions;
  Alcotest.(check int) "runtime_ps" 152_064_162 m.Metrics.runtime_ps;
  Alcotest.(check string) "energy_pj" "638814.132"
    (Printf.sprintf "%.3f" m.Metrics.energy_pj)

(* qcheck differential: across random two-kernel programs driven by a
   feed-forward DVFS policy, the headline metrics a figure would print
   (degradation / savings / ED improvement vs baseline) move by less
   than five percentage points when production runs are sampled.

   The policy reacts to marker identity alone — per-frequency settings
   keyed by the entered function, full speed restored at its exit —
   the same stateless shape as the profile-driven editor. That is the
   class of policy sampling preserves: a skipped instance's own
   enter/exit markers are still processed, so identity-keyed reactions
   happen in both modes, while a stateful controller (the on-line
   attack/decay loop, or anything counting markers) would observe only
   the non-swallowed subsequence and diverge — which is why
   {!Runner.online_run} pins the on-line policy to exact simulation.
   The frequency deltas are the modest phase-boundary kind real plans
   emit (~200 MHz): a policy that swings domains by half their range
   every couple of microseconds against the ~55 us voltage slew keeps
   the machine in a limit cycle that converges over a large fraction
   of the run, which position-matched sampling tracks only coarsely
   (several pp of drift at the extreme). *)
let prop_sampled_policy_drift =
  let feed_forward () =
    let slow_int =
      Reconfig.make ~front_end:1000 ~integer:800 ~floating:900 ~memory:1000
    and slow_fp =
      Reconfig.make ~front_end:1000 ~integer:900 ~floating:800 ~memory:950
    in
    {
      Controller.name = "test-feed-forward";
      on_marker =
        (fun m ~now:_ ->
          match m with
          | Walker.Enter_func { fid; _ } ->
              {
                Controller.no_reaction with
                set = Some (if fid land 1 = 0 then slow_int else slow_fp);
              }
          | Walker.Exit_func _ ->
              {
                Controller.no_reaction with
                set = Some (Reconfig.full_speed ());
              }
          | Walker.Enter_loop _ | Walker.Exit_loop _ ->
              Controller.no_reaction);
      on_sample = (fun _ ~now:_ -> None);
      sample_interval_cycles = 0;
    }
  in
  QCheck.Test.make ~name:"sampled policy metrics drift bounded" ~count:6
    QCheck.(
      pair
        (triple (int_range 15 40) (int_range 150 300) (int_range 1 1000))
        (float_range 0.0 0.3))
    (fun ((calls, length, seed), fl) ->
      let prog =
        B.program ~name:"q" @@ fun b ->
        B.func b "ikernel"
          [
            B.loop b (P.Const 10) [ B.straight b ~length ~frac_load:fl () ];
          ];
        B.func b "fkernel"
          [
            B.loop b (P.Const 8)
              [ B.straight b ~length ~frac_load:fl ~frac_fp_alu:0.3 () ];
          ];
        B.func b "main"
          [
            B.loop b (P.Const calls)
              [ B.call b "ikernel"; B.call b "fkernel" ];
          ];
        "main"
      in
      let input = { P.input_name = "q"; scale = 1; divergence = 0.0; seed } in
      let run ?sampling ~policy () =
        let controller = if policy then Some (feed_forward ()) else None in
        Pipeline.run ?sampling ?controller ~config:Config.alpha21264_like
          ~program:prog ~input ~max_insts:60_000 ()
      in
      let cmp baseline policy = Runner.compare_runs ~baseline policy in
      let e = cmp (run ~policy:false ()) (run ~policy:true ()) in
      let s =
        cmp
          (run ~sampling:Sampler.default_params ~policy:false ())
          (run ~sampling:Sampler.default_params ~policy:true ())
      in
      let close a b = Float.abs (a -. b) < 5.0 in
      close e.Runner.degradation_pct s.Runner.degradation_pct
      && close e.Runner.savings_pct s.Runner.savings_pct
      && close e.Runner.ed_improvement_pct s.Runner.ed_improvement_pct)

(* --- warm-path bugfix regressions ----------------------------------- *)

let dir_counter = ref 0

let with_temp_store f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-sampling-test.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  Mcd_util.Fs.rm_rf dir;
  Fun.protect
    ~finally:(fun () -> Mcd_util.Fs.rm_rf dir)
    (fun () -> f (Store.create ~dir))

(* A warm profile_run disk hit must not pay a profiler walk: the cached
   payload's plan is decoded lazily, and only forcing it rebuilds the
   training tree. *)
let test_warm_profile_run_lazy_plan () =
  with_temp_store @@ fun store ->
  Fun.protect
    ~finally:(fun () -> Store.set_default None)
    (fun () ->
      Store.set_default (Some store);
      let w = Suite.by_name "adpcm decode" in
      Runner.clear_caches ();
      let cold = Runner.profile_run w ~context:Context.lf ~train:`Train in
      Runner.clear_caches ();
      let walks0 = Runner.profiler_walks () in
      let warm = Runner.profile_run w ~context:Context.lf ~train:`Train in
      Alcotest.(check string) "warm run byte-identical"
        (Metrics.encode cold.Runner.run)
        (Metrics.encode warm.Runner.run);
      Alcotest.(check int) "disk hit performs no profiler walk" walks0
        (Runner.profiler_walks ());
      ignore (Lazy.force warm.Runner.plan : Mcd_core.Plan.t);
      Alcotest.(check bool) "forcing the plan walks the profiler" true
        (Runner.profiler_walks () > walks0))

(* Geomean of a nonpositive sample is a caller bug, reported as
   Invalid_argument — not an assert that vanishes in release builds. *)
let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "nonpositive element"
    (Invalid_argument "Stats.geomean: nonpositive element") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0; 4.0 ] : float));
  Alcotest.check_raises "negative element"
    (Invalid_argument "Stats.geomean: nonpositive element") (fun () ->
      ignore (Stats.geomean [ -2.0 ] : float))

(* Non-default slowdown points memoize: two identical calls inside one
   sweep share one simulation (physical equality of the memoized run
   and counters — the record's lazy plan is rebuilt per call by
   design), instead of re-simulating because the memo key dropped the
   slowdown parameter. *)
let test_nondefault_slowdown_memoizes () =
  let w = Suite.by_name "adpcm decode" in
  let r1 = Runner.profile_run ~slowdown_pct:5.5 w ~context:Context.lf ~train:`Train in
  let r2 = Runner.profile_run ~slowdown_pct:5.5 w ~context:Context.lf ~train:`Train in
  Alcotest.(check bool) "second call served from the memo" true
    (r1.Runner.run == r2.Runner.run && r1.Runner.counters == r2.Runner.counters);
  let d = Runner.profile_run w ~context:Context.lf ~train:`Train in
  Alcotest.(check bool) "distinct from the default-slowdown run" true
    (not (d.Runner.run == r1.Runner.run))

let suite =
  [
    ("sampler skips phases", `Quick, test_sampler_skips_phases);
    ("sampled runs deterministic", `Quick, test_sampled_deterministic);
    ("workload drift bounded", `Slow, test_workload_drift_bounded);
    ("golden sampled metrics pinned", `Quick, test_golden_sampled_metrics);
    qcheck prop_sampled_policy_drift;
    ("warm profile_run decodes plan lazily", `Slow,
     test_warm_profile_run_lazy_plan);
    ("geomean rejects nonpositive", `Quick, test_geomean_rejects_nonpositive);
    ("non-default slowdown memoizes", `Slow,
     test_nondefault_slowdown_memoizes);
  ]
