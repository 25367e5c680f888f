let () =
  Alcotest.run "fuzion"
    (Test_support.suites @ Test_ir.suites @ Test_skeleton.suites @ Test_core.suites
   @ Test_compile.suites @ Test_perf.suites @ Test_zap.suites @ Test_suite.suites @ Test_sir.suites @ Test_exec.suites @ Test_comm_model.suites @ Test_merge.suites @ Test_simplify.suites @ Test_vendors.suites @ Test_emit_c.suites @ Test_cli.suites @ Test_obs.suites @ Test_bench_json.suites @ Test_spmd.suites
   @ Test_plan.suites @ Test_fuzz.suites @ Test_service.suites
   @ Test_lazy.suites @ Test_native.suites)
