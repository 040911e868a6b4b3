(* Cluster monitoring (the Astrolabe/SDIMS motivating scenario).

   A three-level aggregation hierarchy over 40 machines: 1 root, 3 pod
   aggregators, 36 leaf machines.  Each machine periodically reports its
   load (a write at its leaf); operators query cluster-wide aggregates
   (MAX load for alerting, AVG load for dashboards) from arbitrary
   nodes.  The workload shifts between a quiet phase (dashboards poll
   a lot, little churn) and an incident phase (load values churn fast,
   few queries) — exactly the setting where a static propagation
   strategy loses and RWW adapts.

   Run with: dune exec examples/monitoring.exe *)

module Sm = Prng.Splitmix
module Mmax = Oat.Mechanism.Make (Agg.Ops.Max)
module Mavg = Oat.Mechanism.Make (Agg.Ops.Avg)

let () =
  let tree = Tree.Build.kary ~k:3 40 in
  let n = Tree.n_nodes tree in
  let rng = Sm.create 2007 in

  print_endline "Cluster monitoring over a 3-ary aggregation hierarchy (n=40)";
  print_endline "=============================================================";

  (* Two aggregate attributes over the same tree: max load and average
     load, each running its own RWW-managed instance.  Both share one
     metrics registry (registration is by name, so the two instances
     accumulate into the same counters — a cluster-wide view). *)
  let metrics = Telemetry.Metrics.create () in
  let max_sys = Mmax.create ~metrics tree ~policy:Oat.Rww.policy in
  let avg_sys = Mavg.create ~metrics tree ~policy:Oat.Rww.policy in
  (* Messages needed to answer one operator query, both attributes; the
     tail (p95/p99) is what an on-call dashboard user experiences. *)
  let query_cost = Telemetry.Metrics.histogram metrics "query.cost" in

  (* Per-phase snapshot: print the registry and zero it (registrations
     and handles survive a reset), so each phase reports its own lease
     churn, per-kind message counts, and query-cost tail. *)
  let report_phase label =
    (* fold a GC health snapshot into the phase table: with the flat-
       frame data plane, gc.minor_words should barely move per phase *)
    Telemetry.Metrics.gc_sample metrics;
    Printf.printf "\n%s metrics:\n" label;
    List.iter
      (fun line -> if line <> "" then Printf.printf "  | %s\n" line)
      (String.split_on_char '\n' (Telemetry.Metrics.to_text metrics));
    print_newline ();
    Telemetry.Metrics.reset metrics
  in

  let report_load machine load =
    Mmax.write_sync max_sys ~node:machine load;
    Mavg.write_sync avg_sys ~node:machine (Agg.Ops.Avg.of_sample load)
  in

  (* Boot: every machine reports a baseline load. *)
  for machine = 0 to n - 1 do
    report_load machine (5.0 +. Sm.float rng)
  done;

  let messages () = Mmax.message_total max_sys + Mavg.message_total avg_sys in

  (* Boot traffic is not interesting per-phase data. *)
  Telemetry.Metrics.reset metrics;

  (* Quiet phase: dashboards at random nodes poll both aggregates. *)
  let before = messages () in
  let polls = 200 in
  for _ = 1 to polls do
    let dashboard = Sm.int rng n in
    let poll_before = messages () in
    let worst = Mmax.combine_sync max_sys ~node:dashboard in
    let mean = Agg.Ops.Avg.to_float (Mavg.combine_sync avg_sys ~node:dashboard) in
    ignore (worst, mean);
    Telemetry.Metrics.observe query_cost (messages () - poll_before);
    (* background churn: one machine in fifty refreshes its load *)
    if Sm.bernoulli rng 0.02 then
      report_load (Sm.int rng n) (5.0 +. Sm.float rng)
  done;
  Printf.printf "quiet phase:    %4d polls cost %6d messages (%.2f/poll)\n" polls
    (messages () - before)
    (float_of_int (messages () - before) /. float_of_int polls);
  report_phase "quiet phase";

  (* Incident: machines in pod 1 (subtree of node 1) go hot and churn. *)
  let before = messages () in
  let churns = 400 in
  let pod = Tree.subtree tree 1 0 in
  let pod_arr = Array.of_list pod in
  for i = 1 to churns do
    let machine = Sm.pick rng pod_arr in
    report_load machine (50.0 +. Sm.float rng *. 50.0);
    (* the on-call engineer checks occasionally *)
    if i mod 40 = 0 then begin
      let check_before = messages () in
      let worst = Mmax.combine_sync max_sys ~node:0 in
      Telemetry.Metrics.observe query_cost (messages () - check_before);
      Printf.printf "  incident check %d: max load %.1f\n" (i / 40) worst
    end
  done;
  Printf.printf "incident phase: %4d churns cost %5d messages (%.2f/churn)\n"
    churns
    (messages () - before)
    (float_of_int (messages () - before) /. float_of_int churns);
  report_phase "incident phase";

  (* Sanity: the aggregates are exact. *)
  let final_max = Mmax.combine_sync max_sys ~node:(n - 1) in
  let final_avg = Agg.Ops.Avg.to_float (Mavg.combine_sync avg_sys ~node:(n - 1)) in
  Printf.printf "final aggregates: max=%.1f avg=%.1f\n" final_max final_avg;
  Printf.printf "data plane: %d frames ever built (hwm %d in flight)\n"
    (Simul.Frame.created (Mmax.frame_pool max_sys)
    + Simul.Frame.created (Mavg.frame_pool avg_sys))
    (max
       (Simul.Frame.hwm (Mmax.frame_pool max_sys))
       (Simul.Frame.hwm (Mavg.frame_pool avg_sys)));

  (* Fault drill: replay a monitoring burst over a lossy wire with one
     pod aggregator crashing mid-run and one leaf machine leaving and
     rejoining the hierarchy (decommission/recommission), on the full
     reliable-transport stack.  The registry is shared by the fault
     plan (fault.injected.-, including .leave/.join), the transport
     (net.retransmits, net.dedup_drops) and the mechanism
     (mech.recovery.reprobes), so one dump shows the whole incident;
     the run ends with a Merkle anti-entropy pass healing whatever
     ghost-log divergence the incident left behind. *)
  print_endline
    "\nFault drill: 10% loss, dup/reorder, pod aggregator 1 down 25..55,\n\
     machine 20 decommissioned 35..80";
  let drill_metrics = Telemetry.Metrics.create () in
  let spec =
    match
      Fault.Plan.spec_of_string
        "drop=0.1,dup=0.05,reorder=0.1:3,crash=1@25+30,leave=20@35,join=20@80"
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let plan = Fault.Plan.create ~metrics:drill_metrics ~seed:2007 spec in
  let drill_requests =
    let rng = Sm.create 7 in
    List.init 60 (fun i ->
        let machine = Sm.int rng n in
        if i mod 3 = 2 then Oat.Request.combine machine
        else Oat.Request.write machine (5.0 +. Sm.float rng))
  in
  let module R = Fault.Runner.Make (Agg.Ops.Max) in
  let o =
    R.run ~metrics:drill_metrics ~plan ~repair:true ~tree ~policy:Oat.Rww.policy
      ~requests:drill_requests ()
  in
  Printf.printf
    "  %d combines: %d exact, %d partial (aggregator down), %d lost\n"
    o.R.combines o.R.exact o.R.partial o.R.lost;
  Printf.printf "  wire: %d logical -> %d physical frames, %d retransmits\n"
    o.R.logical_msgs o.R.physical_msgs o.R.retransmits;
  Printf.printf "  membership: %d left, %d rejoined, %d requests skipped\n"
    o.R.leaves o.R.joins o.R.skipped;
  Printf.printf "  causal check: %s\n"
    (if o.R.causal_violations = 0 then "ok" else "VIOLATED");
  Format.printf "  anti-entropy: divergence %d -> %d (%a)@."
    o.R.divergence_before o.R.divergence_after Repair.pp_stats o.R.repair_stats;
  Telemetry.Metrics.gc_sample drill_metrics;
  Printf.printf "\nfault drill metrics:\n";
  List.iter
    (fun line -> if line <> "" then Printf.printf "  | %s\n" line)
    (String.split_on_char '\n' (Telemetry.Metrics.to_text drill_metrics));

  (* Compare the same trace against the static strategies. *)
  print_endline "\nStatic strategies on an equivalent mixed trace (SUM attribute):";
  let sigma =
    Workload.Generate.phased tree (Sm.create 99) ~n:2000 ~phase_len:250
  in
  List.iter
    (fun (name, make) ->
      let cost = Baselines.Algorithm.run (make tree) sigma in
      Printf.printf "  %-16s %6d messages\n" name cost)
    Baselines.Algorithm.all_static_and_adaptive;
  print_endline
    "(astrolabe floods every churn; mds-2 re-probes every poll; RWW tracks\n\
     the phase and pays close to the cheaper one in each)";

  (* Fleet dashboard: the same hierarchy sharded over 4 domains, with
     the full observability layer on — per-shard metric registries
     merged into one fleet view, a latency recorder on the shared
     window axis, a windowed health series, and the always-on
     conservation audit cross-checking the ledgers every window. *)
  print_endline "\nSharded fleet (4 domains) with observability enabled:";
  let domains = 4 in
  let part =
    Tree.Partition.create_weighted tree ~shards:domains
      ~weights:(Tree.Partition.subtree_weights tree)
  in
  let fleet = Mmax.create tree ~policy:Oat.Rww.policy in
  let latency = Telemetry.Latency.create () in
  let series = Telemetry.Series.create () in
  let sh =
    Simul.Sharded.create tree ~partition:part ~latency ~series
      ~handler:(Mmax.handler fleet)
  in
  Mmax.set_outbox fleet
    ~send:(Simul.Sharded.route sh)
    ~pool_for:(Simul.Sharded.pool_for sh);
  (* Open-loop rounds: each window, a batch of machines report load and
     a dashboard polls the cluster max. *)
  let rng = Sm.create 4007 in
  let requests =
    Array.init 320 (fun i ->
        let window = i / 8 in
        let node = Sm.int rng n in
        if i mod 8 = 7 then
          (window, node, fun () -> ignore (Mmax.combine fleet ~node (fun _ -> ())))
        else
          (window, node, fun () -> Mmax.write fleet ~node (5.0 +. Sm.float rng)))
  in
  Simul.Sharded.run_open sh ~requests;
  Printf.printf "  fleet: %d messages over %d windows, %d cross-shard\n"
    (Simul.Sharded.total sh)
    (Simul.Sharded.windows sh)
    (Simul.Sharded.crossings sh);
  Printf.printf "  shard | nodes | deliveries | stalls | mailbox hwm\n";
  for s = 0 to Tree.Partition.k part - 1 do
    Printf.printf "  %5d | %5d | %10d | %6d | %11d\n" s
      (Array.length (Tree.Partition.owned part s))
      (Simul.Sharded.deliveries_of sh s)
      (Simul.Sharded.stalls_of sh s)
      (Simul.Sharded.mailbox_hwm sh s)
  done;
  let au = Simul.Sharded.audit sh in
  Printf.printf "  conservation audit: %d ledger checks, %d violations\n"
    (Telemetry.Audit.checks au)
    (Telemetry.Audit.violations au);
  print_string "  fleet metrics (merged over 4 shard registries):\n";
  List.iter
    (fun line -> if line <> "" then Printf.printf "  | %s\n" line)
    (String.split_on_char '\n'
       (Telemetry.Metrics.to_text (Simul.Sharded.fleet_metrics sh)));
  List.iter
    (fun line -> if line <> "" then Printf.printf "  %s\n" line)
    (String.split_on_char '\n' (Telemetry.Latency.to_text latency));
  Printf.printf "  health series: %d windows sampled (last window: %s)\n"
    (Telemetry.Series.length series)
    (match Telemetry.Series.samples series with
    | [] -> "none"
    | l ->
      let s = List.nth l (List.length l - 1) in
      Printf.sprintf "%d deliveries, mailbox hwm %d" s.Telemetry.Series.s_deliveries
        s.Telemetry.Series.s_mailbox_hwm)
