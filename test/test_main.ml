let () =
  Alcotest.run "amac_mmb"
    (Test_model_based.suite @ Test_heap.suite @ Test_bitset.suite @ Test_stats_io.suite @ Test_sim.suite @ Test_rng.suite @ Test_trace.suite
   @ Test_graph.suite @ Test_bfs.suite @ Test_gen.suite @ Test_geometry.suite @ Test_dual.suite @ Test_dyn.suite
   @ Test_mis.suite @ Test_standard_mac.suite @ Test_enhanced_mac.suite
   @ Test_round_sync.suite @ Test_compliance.suite @ Test_compliance_mutation.suite @ Test_estimate.suite @ Test_schedulers.suite @ Test_problem.suite @ Test_bmmb.suite
   @ Test_fmmb.suite @ Test_fmmb_micro.suite @ Test_bounds.suite @ Test_lower_bound.suite
   @ Test_radio.suite @ Test_sinr.suite @ Test_fmmb_online.suite @ Test_online.suite @ Test_structuring.suite @ Test_scenario.suite @ Test_golden.suite @ Test_properties.suite @ Test_matrix.suite @ Test_integration.suite
   @ Test_determinism.suite @ Test_lint.suite @ Test_check.suite @ Test_race.suite @ Test_hot.suite @ Test_obs.suite
   @ Test_exec.suite @ Test_tracing.suite @ Test_pdes.suite @ Test_metamorphic.suite @ Test_fuzz.suite)
