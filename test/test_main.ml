let () =
  Alcotest.run "mcd_dvfs"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("isa", Test_isa.suite);
      ("mcd", Test_mcd.suite);
      ("cpu", Test_cpu.suite);
      ("sampling", Test_sampling.suite);
      ("power", Test_power.suite);
      ("profiling", Test_profiling.suite);
      ("trace", Test_trace.suite);
      ("core", Test_core.suite);
      ("kernels", Test_kernels.suite);
      ("robust", Test_robust.suite);
      ("control", Test_control.suite);
      ("workloads", Test_workloads.suite);
      ("gen", Test_gen.suite);
      ("experiments", Test_experiments.suite);
      ("cache", Test_cache.suite);
      ("serve", Test_serve.suite);
      ("cli", Test_cli.suite);
    ]
