(* Aggregated test runner: one alcotest suite per module, qcheck properties
   registered as alcotest cases. Run with `dune runtest`. *)

let () =
  Alcotest.run "dmm"
    [
      Test_prng.tests;
      Test_stats.tests;
      Test_histogram.tests;
      Test_int_table.tests;
      Test_int_treap.tests;
      Test_int_ring.tests;
      Test_size.tests;
      Test_address_space.tests;
      Test_decision.tests;
      Test_decision_vector.tests;
      Test_constraints.tests;
      Test_order.tests;
      Test_free_structure.tests;
      Test_manager.tests;
      Test_manager_policies.tests;
      Test_global_manager.tests;
      Test_profile.tests;
      Test_explorer.tests;
      Test_trace.tests;
      Test_obs.tests;
      Test_span.tests;
      Test_codec.tests;
      Test_telemetry.tests;
      Test_recorder_replay.tests;
      Test_kingsley.tests;
      Test_lea.tests;
      Test_pool_cores.tests;
      Test_region.tests;
      Test_obstack.tests;
      Test_baseline_models.tests;
      Test_static_pool.tests;
      Test_traffic.tests;
      Test_drr.tests;
      Test_reconstruct.tests;
      Test_render.tests;
      Test_breakdown.tests;
      Test_sanitizer.tests;
      Test_profiler.tests;
      Test_phase_detect.tests;
      Test_energy.tests;
      Test_experiments.tests;
      Test_engine.tests;
      Test_ingest.tests;
      Test_micro.tests;
      Test_interleave.tests;
      Test_integration.tests;
    ]
