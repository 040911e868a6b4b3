let () =
  Alcotest.run "oat"
    [
      ("prng", Test_prng.suite);
      ("tree", Test_tree.suite);
      ("agg", Test_agg.suite);
      ("simul", Test_simul.suite);
      ("sharded", Test_sharded.suite);
      ("frames", Test_frames.suite);
      ("telemetry", Test_telemetry.suite);
      ("mechanism", Test_mechanism.suite);
      ("ulog", Test_ulog.suite);
      ("offline", Test_offline.suite);
      ("lp", Test_lp.suite);
      ("workload", Test_workload.suite);
      ("analysis", Test_analysis.suite);
      ("baselines", Test_baselines.suite);
      ("consistency", Test_consistency.suite);
      ("competitive", Test_competitive.suite);
      ("latency", Test_latency.suite);
      ("multi", Test_multi.suite);
      ("timed", Test_timed.suite);
      ("interleavings", Test_interleavings.suite);
      ("properties", Test_properties.suite);
      ("stress", Test_stress.suite);
      ("faults", Test_faults.suite);
      ("reliable", Test_reliable.suite);
      ("recovery", Test_recovery.suite);
      ("repair", Test_repair.suite);
      ("churn", Test_churn.suite);
      ("dht", Test_dht.suite);
    ]
