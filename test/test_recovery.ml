(* Crash/recovery at the mechanism level (partial aggregates, epoch
   resync, cache healing) and the full fault-injection stack
   (Fault.Runner: mechanism over Reliable over a faulty Network),
   including the ISSUE's flagship demo: a seeded run with >= 10% loss
   and a crash/restart that completes to quiescence, passes the causal
   checker, and reproduces byte for byte from its seed. *)

module M = Oat.Mechanism.Make (Agg.Ops.Sum)
module R = Fault.Runner.Make (Agg.Ops.Sum)

let path3 () = Tree.Build.path 3

(* -------- plain-network crash semantics (perfect failure detector) -- *)

let test_partial_combine_during_downtime () =
  let tree = path3 () in
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  (* the write at 2 is durable but, after the crash, unreachable *)
  M.write_sync sys ~node:2 5.0;
  M.crash sys ~node:2;
  M.check_invariants sys;
  Alcotest.(check bool) "1 sees 2 down" true
    (Oat.Mechanism.IntSet.mem 2 (M.known_down sys 1));
  let result = ref None in
  M.combine_tagged sys ~node:0 (fun v ~cut -> result := Some (v, cut));
  ignore (M.run_to_quiescence sys);
  (match !result with
  | Some (v, cut) ->
    Alcotest.(check (float 1e-9)) "partial aggregate omits the cut subtree"
      0.0 v;
    Alcotest.(check (list int)) "cut names the crashed root" [ 2 ] cut
  | None -> Alcotest.fail "combine did not complete during downtime");
  M.check_invariants sys;
  (* degraded reads stay outside the consistency contract *)
  Alcotest.(check int) "partial combine not counted completed" 0
    (M.completed_requests sys 0)

let test_restart_resyncs_and_heals () =
  let tree = path3 () in
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  M.write_sync sys ~node:2 5.0;
  M.crash sys ~node:2;
  let r1 = ref None in
  M.combine_tagged sys ~node:0 (fun v ~cut -> r1 := Some (v, cut));
  ignore (M.run_to_quiescence sys);
  Alcotest.(check (option (pair (float 1e-9) (list int))))
    "down: partial"
    (Some (0.0, [ 2 ]))
    !r1;
  M.restart sys ~node:2;
  ignore (M.run_to_quiescence sys);
  M.check_invariants sys;
  Alcotest.(check int) "epoch bumped" 1 (M.epoch sys 2);
  Alcotest.(check bool) "1 no longer sees 2 down" true
    (Oat.Mechanism.IntSet.is_empty (M.known_down sys 1));
  (* the Hello resync healed the caches up the lease chain: the durable
     pre-crash write is visible and the combine is exact again *)
  let r2 = ref None in
  M.combine_tagged sys ~node:0 (fun v ~cut -> r2 := Some (v, cut));
  ignore (M.run_to_quiescence sys);
  Alcotest.(check (option (pair (float 1e-9) (list int))))
    "after restart: exact, durable value visible"
    (Some (5.0, []))
    !r2;
  Alcotest.(check int) "exact combine counted" 1 (M.completed_requests sys 0)

let test_warm_lease_heals_without_new_request () =
  (* 0 holds a lease over 1's subtree, 2 crashes and restarts: the
     refresh pull/push must heal 0's cache without 0 asking again. *)
  let tree = path3 () in
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  M.write_sync sys ~node:2 3.0;
  ignore (M.combine_sync sys ~node:0);
  Alcotest.(check bool) "lease warm" true (M.taken sys 0 1);
  M.crash sys ~node:2;
  M.restart sys ~node:2;
  ignore (M.run_to_quiescence sys);
  M.check_invariants sys;
  (* no new combine was issued; the cache healed behind the lease *)
  let r = ref None in
  M.combine_tagged sys ~node:0 (fun v ~cut -> r := Some (v, cut));
  ignore (M.run_to_quiescence sys);
  Alcotest.(check (option (pair (float 1e-9) (list int))))
    "cache healed behind the warm lease"
    (Some (3.0, []))
    !r

let test_pending_combine_completes_partially_on_crash () =
  (* a combine blocked on a probe to a node that then crashes must
     complete (partially), not hang *)
  let tree = path3 () in
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  let r = ref None in
  M.combine_tagged sys ~node:0 (fun v ~cut -> r := Some (v, cut));
  Alcotest.(check (option (pair (float 1e-9) (list int))))
    "blocked on the probe" None !r;
  M.crash sys ~node:1;
  Alcotest.(check (option (pair (float 1e-9) (list int))))
    "completed partially at the crash"
    (Some (0.0, [ 1 ]))
    !r;
  ignore (M.run_to_quiescence sys);
  M.check_invariants sys

let test_request_guards () =
  let tree = path3 () in
  let sys = M.create tree ~policy:Oat.Rww.policy in
  M.crash sys ~node:1;
  Alcotest.check_raises "write at crashed node"
    (Invalid_argument "Mechanism.write: node 1 is down") (fun () ->
      M.write sys ~node:1 1.0);
  Alcotest.check_raises "combine at crashed node"
    (Invalid_argument "Mechanism.combine: node 1 is down") (fun () ->
      M.combine sys ~node:1 ignore);
  Alcotest.check_raises "double crash"
    (Invalid_argument "Mechanism.crash: node already down") (fun () ->
      M.crash sys ~node:1);
  Alcotest.check_raises "restart of a live node"
    (Invalid_argument "Mechanism.restart: node is up") (fun () ->
      M.restart sys ~node:0)

let test_divergence_guard () =
  (* satellite: the typed budget guard replaces the old bare Failure *)
  let tree = Tree.Build.binary 15 in
  let sys = M.create tree ~policy:Oat.Rww.policy in
  M.combine sys ~node:0 ignore;
  match M.run_to_quiescence ~max_deliveries:3 sys with
  | (_ : int) -> Alcotest.fail "expected Divergence"
  | exception Simul.Engine.Divergence { deliveries; budget } ->
    Alcotest.(check int) "budget echoed" 3 budget;
    Alcotest.(check bool) "counted past the budget" true (deliveries > budget)

(* -------- the full stack ------------------------------------------- *)

let workload n k =
  List.init k (fun i ->
      if i mod 3 = 2 then Oat.Request.combine (i * 5 mod n)
      else Oat.Request.write (i * 7 mod n) (float_of_int (i + 1)))

let demo_spec = "drop=0.15,dup=0.05,reorder=0.1:3,delay=0.1:3,crash=3@25+18"

let run_demo () =
  let spec =
    match Fault.Plan.spec_of_string demo_spec with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let plan = Fault.Plan.create ~seed:42 spec in
  R.run ~plan ~tree:(Tree.Build.binary 9) ~policy:Oat.Rww.policy
    ~requests:(workload 9 30) ()

let test_lossy_crashy_run_completes_causally () =
  let o = run_demo () in
  Alcotest.(check int) "crash executed" 1 o.R.crashes;
  Alcotest.(check bool) "losses actually injected" true (o.R.faults_dropped > 0);
  Alcotest.(check bool) "transport retransmitted" true (o.R.retransmits > 0);
  Alcotest.(check bool) "duplicates were deduplicated" true
    (o.R.dedup_drops > 0);
  Alcotest.(check int) "every combine accounted for" o.R.combines
    (o.R.exact + o.R.partial + o.R.lost);
  Alcotest.(check bool) "wire cost exceeds logical cost" true
    (o.R.physical_msgs > o.R.logical_msgs);
  Alcotest.(check int) "causally consistent" 0 o.R.causal_violations

let test_demo_reproducible_from_seed () =
  let o1 = run_demo () and o2 = run_demo () in
  Alcotest.(check bool) "same seed, identical outcome record" true (o1 = o2);
  let rendered o = Format.asprintf "%a" R.pp_outcome o in
  Alcotest.(check string) "byte-for-byte" (rendered o1) (rendered o2)

let test_fault_free_runner_matches_contract () =
  (* no plan: the stack still runs over the transport; everything exact,
     nothing retransmitted, nothing lost *)
  let o =
    R.run ~tree:(Tree.Build.binary 9) ~policy:Oat.Rww.policy
      ~requests:(workload 9 30) ()
  in
  Alcotest.(check int) "no partials" 0 o.R.partial;
  Alcotest.(check int) "no losses" 0 o.R.lost;
  Alcotest.(check int) "no skips" 0 o.R.skipped;
  Alcotest.(check int) "no retransmits" 0 o.R.retransmits;
  Alcotest.(check int) "causally consistent" 0 o.R.causal_violations;
  Alcotest.(check int) "acks only overhead" o.R.physical_msgs
    (o.R.logical_msgs * 2)

(* [metrics]' net.* counters are the physical network's: they count the
   wire — data frames, acks and retransmissions — so per kind they sum
   to [physical_msgs], drops included. *)
let test_runner_metrics_count_the_wire () =
  let run spec =
    let metrics = Telemetry.Metrics.create () in
    let spec =
      match Fault.Plan.spec_of_string spec with
      | Ok s -> s
      | Error m -> Alcotest.fail m
    in
    let plan = Fault.Plan.create ~metrics ~seed:7 spec in
    let o =
      R.run ~metrics ~plan ~tree:(Tree.Build.binary 9) ~policy:Oat.Rww.policy
        ~requests:(workload 9 30) ()
    in
    let sent k =
      Telemetry.Metrics.counter_value
        (Telemetry.Metrics.counter metrics ("net.sent." ^ Simul.Kind.to_string k))
    in
    (o, sent, List.fold_left (fun acc k -> acc + sent k) 0 Simul.Kind.all)
  in
  let o, sent, wire = run "drop=0" in
  Alcotest.(check int) "fault-free: net.sent.* = physical" o.R.physical_msgs wire;
  Alcotest.(check int) "fault-free: physical = 2 x logical"
    (2 * o.R.logical_msgs) o.R.physical_msgs;
  Alcotest.(check bool) "acks on the wire" true (sent Simul.Kind.Ack > 0);
  let o, _, wire = run "drop=0.1" in
  Alcotest.(check bool) "losses injected" true (o.R.faults_dropped > 0);
  Alcotest.(check int) "lossy: net.sent.* = physical" o.R.physical_msgs wire

let suite =
  [
    Alcotest.test_case "partial combine during downtime" `Quick
      test_partial_combine_during_downtime;
    Alcotest.test_case "restart resyncs and heals" `Quick
      test_restart_resyncs_and_heals;
    Alcotest.test_case "warm lease heals without new request" `Quick
      test_warm_lease_heals_without_new_request;
    Alcotest.test_case "pending combine completes on crash" `Quick
      test_pending_combine_completes_partially_on_crash;
    Alcotest.test_case "request guards on crashed nodes" `Quick
      test_request_guards;
    Alcotest.test_case "divergence guard is typed" `Quick test_divergence_guard;
    Alcotest.test_case "lossy crashy run: quiescent and causal" `Quick
      test_lossy_crashy_run_completes_causally;
    Alcotest.test_case "demo reproducible from seed" `Quick
      test_demo_reproducible_from_seed;
    Alcotest.test_case "fault-free runner contract" `Quick
      test_fault_free_runner_matches_contract;
    Alcotest.test_case "runner metrics count the wire" `Quick
      test_runner_metrics_count_the_wire;
  ]
