(* Dynamic membership: lease-safe depart/join at the mechanism level,
   the scripted churn driver's engine/sharded differential drill, churn
   plan specs (flap, leave/join, detached, synthesis), and the full
   runner stack under churn with Merkle repair. *)

module M = Oat.Mechanism.Make (Agg.Ops.Sum)
module C = Fault.Churn.Make (Agg.Ops.Sum)
module R = Fault.Runner.Make (Agg.Ops.Sum)
module P = Fault.Plan

(* [OAT_DOMAINS] (space- or comma-separated shard counts) overrides the
   shard counts the differential drill sweeps, mirroring test_sharded —
   the ci-churn alias pins it to "1,4". *)
let domain_counts =
  match Sys.getenv_opt "OAT_DOMAINS" with
  | None -> [ 1; 2; 4 ]
  | Some s -> (
    let toks =
      String.split_on_char ' ' (String.trim s)
      |> List.concat_map (String.split_on_char ',')
    in
    match List.filter_map int_of_string_opt toks with
    | [] -> [ 1; 2; 4 ]
    | l -> l)

let drain sys = ignore (M.run_to_quiescence sys)

(* -------- mechanism-level depart/join ------------------------------ *)

let test_depart_conserves_aggregate () =
  let tree = Tree.Build.path 4 in
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  for u = 0 to 3 do
    M.write_sync sys ~node:u (float_of_int (1 lsl u))
  done;
  Alcotest.(check (float 1e-9)) "baseline" 15.0 (M.combine_sync sys ~node:0);
  M.depart sys ~node:3;
  drain sys;
  M.check_invariants sys;
  Alcotest.(check bool) "departed" false (M.attached sys 3);
  Alcotest.(check bool) "neighbour knows" true
    (Oat.Mechanism.IntSet.mem 3 (M.known_detached sys 2));
  (* the departing node's durable value was handed off: the aggregate
     over the shrunken tree is conserved, and the combine is exact *)
  Alcotest.(check (float 1e-9)) "carry conserved" 15.0
    (M.combine_sync sys ~node:0);
  Alcotest.(check (float 1e-9)) "departed value surrendered" 0.0
    (M.local_value sys 3)

let test_join_resumes_participation () =
  let tree = Tree.Build.path 4 in
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  M.write_sync sys ~node:0 1.0;
  M.write_sync sys ~node:3 2.0;
  M.depart sys ~node:3;
  drain sys;
  M.join sys ~node:3;
  drain sys;
  M.check_invariants sys;
  Alcotest.(check bool) "attached again" true (M.attached sys 3);
  Alcotest.(check bool) "epoch fenced" true (M.epoch sys 3 > 0);
  M.write_sync sys ~node:3 4.0;
  Alcotest.(check (float 1e-9)) "rejoined node contributes" 7.0
    (M.combine_sync sys ~node:0);
  Alcotest.(check (float 1e-9)) "symmetric from the rejoined node" 7.0
    (M.combine_sync sys ~node:3)

let test_cascading_departs () =
  (* peeling a path from the end: each depart makes the next node a
     leaf, and every carry accumulates at the survivor *)
  let tree = Tree.Build.path 4 in
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  for u = 0 to 3 do
    M.write_sync sys ~node:u 1.0
  done;
  M.depart sys ~node:3;
  drain sys;
  M.depart sys ~node:2;
  drain sys;
  M.depart sys ~node:1;
  drain sys;
  M.check_invariants sys;
  Alcotest.(check (float 1e-9)) "all carries landed at the root" 4.0
    (M.local_value sys 0);
  Alcotest.(check (float 1e-9)) "combine over the singleton" 4.0
    (M.combine_sync sys ~node:0)

let test_membership_guards () =
  let tree = Tree.Build.path 4 in
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  Alcotest.check_raises "depart of a non-leaf"
    (Invalid_argument
       "Mechanism.depart: node 1 has 2 attached neighbours (need an active \
        leaf)") (fun () -> M.depart sys ~node:1);
  M.depart sys ~node:3;
  drain sys;
  Alcotest.check_raises "double depart"
    (Invalid_argument "Mechanism.depart: node 3 is already detached")
    (fun () -> M.depart sys ~node:3);
  Alcotest.check_raises "request at a detached node"
    (Invalid_argument "Mechanism.write: node 3 is detached") (fun () ->
      M.write sys ~node:3 1.0);
  Alcotest.check_raises "crash of a detached node"
    (Invalid_argument "Mechanism.crash: node is detached") (fun () ->
      M.crash sys ~node:3);
  Alcotest.check_raises "join of an attached node"
    (Invalid_argument "Mechanism.join: node 0 is already attached") (fun () ->
      M.join sys ~node:0);
  M.crash sys ~node:2;
  Alcotest.check_raises "depart with a dead handoff"
    (Invalid_argument "Mechanism.depart: handoff neighbour 0 is down")
    (fun () ->
      M.restart sys ~node:2;
      drain sys;
      M.depart sys ~node:2;
      drain sys;
      (* 1 is now a leaf whose only attached neighbour 0 goes down *)
      M.crash sys ~node:0;
      M.depart sys ~node:1)

let test_initially_detached () =
  let tree = Tree.Build.path 4 in
  let sys =
    M.create ~ghost:true ~detached:[ 3 ] tree ~policy:Oat.Rww.policy
  in
  M.check_invariants sys;
  Alcotest.(check bool) "starts detached" false (M.attached sys 3);
  M.write_sync sys ~node:0 2.0;
  Alcotest.(check (float 1e-9)) "aggregation over the initial active set"
    2.0
    (M.combine_sync sys ~node:2);
  M.join sys ~node:3;
  drain sys;
  M.check_invariants sys;
  M.write_sync sys ~node:3 5.0;
  Alcotest.(check (float 1e-9)) "late joiner counted" 7.0
    (M.combine_sync sys ~node:0)

(* -------- engine vs sharded differential drill --------------------- *)

let seeded_requests n ~seed ~count =
  let rng = Prng.Splitmix.create seed in
  List.init count (fun i ->
      let node = Prng.Splitmix.int rng n in
      if Prng.Splitmix.bool rng then Oat.Request.write node (float_of_int (i + 1))
      else Oat.Request.combine node)

let drill_phases n =
  [
    { C.events = []; requests = seeded_requests n ~seed:11 ~count:30 };
    { C.events = [ C.Crash 7 ]; requests = seeded_requests n ~seed:12 ~count:20 };
    {
      C.events = [ C.Restart 7; C.Leave 14 ];
      requests = seeded_requests n ~seed:13 ~count:20;
    };
    {
      C.events = [ C.Join 14; C.Crash 3; C.Restart 3 ];
      requests = seeded_requests n ~seed:14 ~count:30;
    };
  ]

let test_differential_churn_drill () =
  let tree = Tree.Build.binary 15 in
  let n = 15 in
  let phases = drill_phases n in
  let reference =
    C.run_engine ~repair:true ~tree ~policy:Oat.Rww.policy ~phases ()
  in
  Alcotest.(check int) "reference causal" 0 reference.C.causal_violations;
  Alcotest.(check int) "reference repaired to zero" 0
    reference.C.divergence_after;
  Alcotest.(check int) "events all executed" 2 reference.C.crashes;
  Alcotest.(check int) "leave executed" 1 reference.C.leaves;
  Alcotest.(check int) "join executed" 1 reference.C.joins;
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "churn drill @ %d domains" domains in
      let o =
        C.run_sharded ~repair:true ~domains ~tree ~policy:Oat.Rww.policy
          ~phases ()
      in
      Alcotest.(check int) (tag ^ ": issued") reference.C.issued o.C.issued;
      Alcotest.(check int) (tag ^ ": skipped") reference.C.skipped o.C.skipped;
      Alcotest.(check int)
        (tag ^ ": logical msgs") reference.C.logical_msgs o.C.logical_msgs;
      Alcotest.(check (list (option (float 1e-9))))
        (tag ^ ": combine results") reference.C.returned o.C.returned;
      Alcotest.(check (array (float 1e-9)))
        (tag ^ ": final values") reference.C.values o.C.values;
      Alcotest.(check int)
        (tag ^ ": causal verdict")
        reference.C.causal_violations o.C.causal_violations;
      Alcotest.(check int)
        (tag ^ ": divergence before repair")
        reference.C.divergence_before o.C.divergence_before;
      Alcotest.(check int) (tag ^ ": repaired to zero") 0 o.C.divergence_after)
    domain_counts

let test_sharded_churn_deterministic () =
  let tree = Tree.Build.binary 15 in
  let phases = drill_phases 15 in
  let run () =
    C.run_sharded ~repair:true ~domains:2 ~tree ~policy:Oat.Rww.policy ~phases
      ()
  in
  let o1 = run () and o2 = run () in
  Alcotest.(check bool) "2-domain churn run reproducible" true (o1 = o2)

(* -------- plan: flap, churn fields, synthesis ---------------------- *)

let parse s =
  match P.spec_of_string s with
  | Ok spec -> spec
  | Error m -> Alcotest.failf "spec %S rejected: %s" s m

let test_flap_expansion_and_roundtrip () =
  let spec = parse "flap=2@10+4*3:20,leave=5@30,join=5@60,detached=6" in
  let windows = P.crash_windows spec in
  Alcotest.(check int) "flap expands to three windows" 3 (List.length windows);
  List.iteri
    (fun i (c : P.crash) ->
      Alcotest.(check int) "flap node" 2 c.node;
      Alcotest.(check (float 1e-9)) "flap window start"
        (10.0 +. (float_of_int i *. 20.0))
        c.at;
      Alcotest.(check (float 1e-9)) "flap downtime" 4.0 c.down_for)
    windows;
  let s = P.spec_to_string spec in
  let spec' = parse s in
  Alcotest.(check bool) "round-trips through canonical form" true
    (spec = spec');
  Alcotest.(check string) "canonical form is a fixpoint" s
    (P.spec_to_string spec')

let test_plan_rejections () =
  let rejected s =
    match P.spec_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S should be rejected" s
  in
  (* flap whose windows overlap themselves *)
  rejected "flap=2@10+30*2:20";
  (* flap overlapping an explicit crash window *)
  rejected "crash=2@12+10,flap=2@10+4*3:20";
  (* churn alternation: two leaves in a row *)
  rejected "leave=5@10,leave=5@20";
  (* join of a node that starts attached *)
  rejected "join=5@10";
  (* leave of a node that starts detached *)
  rejected "detached=5,leave=5@10";
  (* churn events must be strictly ordered per node *)
  rejected "leave=5@10,join=5@10";
  (* crash window inside a detached period *)
  rejected "leave=5@10,crash=5@15+2,join=5@30";
  (* crash window straddling a leave *)
  rejected "crash=5@8+5,leave=5@10";
  (* duplicate detached *)
  rejected "detached=3,detached=3";
  (* Plan.check: the plan against a tree, as every driver and the CLI
     see it *)
  let misfit tree s expected =
    match P.check tree (parse s) with
    | Ok _ -> Alcotest.failf "plan %S should not fit" s
    | Error m -> Alcotest.(check string) s expected m
  in
  let binary = Tree.Build.binary 7 and path = Tree.Build.path 5 in
  misfit binary "crash=99@1+1" "crash: node 99 outside the tree (n=7)";
  misfit binary "flap=7@1+1*2:5" "flap: node 7 outside the tree (n=7)";
  misfit binary "leave=7@1" "churn: node 7 outside the tree (n=7)";
  misfit binary "detached=7" "detached: node 7 outside the tree (n=7)";
  misfit binary "detached=1"
    "detached: Tree.Dyn.create: active set is disconnected";
  misfit binary "leave=0@1"
    "churn: node 0 cannot leave at 1: node has 2 active neighbours (need \
     exactly 1)";
  misfit path "detached=3,detached=4,join=4@10"
    "churn: node 4 cannot join at 10: no active capacity-neighbour to \
     attach to";
  (* the handoff neighbour's crash window is closed at both ends *)
  misfit path "crash=3@5+4,leave=4@5"
    "churn: node 4 cannot leave at 5: handoff neighbour 3 is down in [5,9]";
  misfit path "crash=3@1+4,leave=4@5"
    "churn: node 4 cannot leave at 5: handoff neighbour 3 is down in [1,5]";
  let fits = parse "crash=3@1+3,leave=4@5,join=4@20,detached=0" in
  Alcotest.(check bool) "a plan that fits comes back unchanged" true
    (P.check path fits = Ok fits);
  (* the runner decides with the same check, before any work *)
  Alcotest.check_raises "runner refuses a plan outside its tree"
    (Invalid_argument "Fault.Runner.run: crash: node 99 outside the tree (n=7)")
    (fun () ->
      ignore
        (R.run
           ~plan:(P.create ~seed:1 (parse "crash=99@1+1"))
           ~tree:binary ~policy:Oat.Rww.policy ~requests:[] ()))

let test_synth_churn_deterministic_and_valid () =
  let tree = Tree.Build.binary 15 in
  let order = List.init 15 (fun i -> i) in
  let churn =
    P.synth_churn ~seed:99 ~tree ~order ~rate:0.05 ~horizon:400.0
  in
  Alcotest.(check bool) "synthesis produced events" true (churn <> []);
  Alcotest.(check bool) "deterministic in the seed" true
    (churn = P.synth_churn ~seed:99 ~tree ~order ~rate:0.05 ~horizon:400.0);
  (* the schedule is valid for a spec with default membership *)
  (match P.validate { P.none with churn } with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "synthesised schedule invalid: %s" m);
  Alcotest.(check (list unit)) "zero rate synthesises nothing" []
    (List.map ignore
       (P.synth_churn ~seed:99 ~tree ~order ~rate:0.0 ~horizon:400.0))

let test_phases_of_plan_partitions_timeline () =
  let spec = parse "crash=3@25+18,leave=5@30,join=5@60" in
  let requests = seeded_requests 8 ~seed:21 ~count:40 in
  let phases = C.phases_of_plan ~spec ~requests () in
  let total_reqs =
    List.fold_left (fun a ph -> a + List.length ph.C.requests) 0 phases
  in
  Alcotest.(check int) "no request lost in compilation" 40 total_reqs;
  let events = List.concat_map (fun ph -> ph.C.events) phases in
  Alcotest.(check bool) "events in timeline order" true
    (events = [ C.Crash 3; C.Leave 5; C.Restart 3; C.Join 5 ]);
  (* request i fires at (i+1) * 2.0: 12 requests precede the crash *)
  (match phases with
  | first :: _ ->
    Alcotest.(check bool) "first phase has no events" true
      (first.C.events = []);
    Alcotest.(check int) "requests before the first event" 12
      (List.length first.C.requests)
  | [] -> Alcotest.fail "no phases");
  (* co-timed events: the crash window first, whatever the spec order,
     and both at one barrier *)
  let spec = parse "leave=5@30,crash=3@30+4" in
  Alcotest.(check bool) "timeline puts the crash before the leave" true
    (P.timeline spec = [ (30.0, P.Crash 3); (30.0, P.Leave 5); (34.0, P.Restart 3) ]);
  let barriers =
    List.filter_map
      (fun ph -> if ph.C.events = [] then None else Some ph.C.events)
      (C.phases_of_plan ~spec ~requests ())
  in
  Alcotest.(check bool) "one barrier for the crash and the leave" true
    (barriers = [ [ C.Crash 3; C.Leave 5 ]; [ C.Restart 3 ] ]);
  (* barrier phases have no wire: a drop probability is refused *)
  match C.phases_of_plan ~spec:(parse "drop=0.1") ~requests () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "phases_of_plan accepted drop=0.1"

(* -------- full runner stack under churn ---------------------------- *)

let churn_outcome ?jitter ?rto_max () =
  let spec = parse "drop=0.05,leave=7@30,join=7@64" in
  let plan = P.create ~seed:7 spec in
  R.run ~plan ?jitter ?rto_max ~repair:true ~tree:(Tree.Build.path 8)
    ~policy:Oat.Rww.policy
    ~requests:(seeded_requests 8 ~seed:31 ~count:40)
    ()

let test_runner_churn_causal_and_repaired () =
  let o = churn_outcome () in
  Alcotest.(check int) "leave executed" 1 o.R.leaves;
  Alcotest.(check int) "join executed" 1 o.R.joins;
  Alcotest.(check int) "causally consistent through reconfiguration" 0
    o.R.causal_violations;
  Alcotest.(check int) "anti-entropy converged" 0 o.R.divergence_after;
  Alcotest.(check int) "every request accounted" o.R.n_requests
    (o.R.issued + o.R.skipped)

let test_runner_churn_reproducible () =
  let o1 = churn_outcome () and o2 = churn_outcome () in
  Alcotest.(check bool) "same seed, identical outcome" true
    (o1.R.logical_msgs = o2.R.logical_msgs
    && o1.R.physical_msgs = o2.R.physical_msgs
    && o1.R.divergence_before = o2.R.divergence_before
    && o1.R.makespan = o2.R.makespan);
  let rendered o = Format.asprintf "%a" R.pp_outcome o in
  Alcotest.(check string) "byte-for-byte" (rendered o1) (rendered o2)

let test_runner_initially_detached () =
  let spec = parse "detached=7,join=7@20" in
  let plan = P.create ~seed:3 spec in
  let o =
    R.run ~plan ~repair:true ~tree:(Tree.Build.path 8) ~policy:Oat.Rww.policy
      ~requests:(seeded_requests 8 ~seed:41 ~count:30)
      ()
  in
  Alcotest.(check int) "join executed" 1 o.R.joins;
  Alcotest.(check int) "no leave" 0 o.R.leaves;
  Alcotest.(check int) "causal" 0 o.R.causal_violations;
  Alcotest.(check int) "converged" 0 o.R.divergence_after

(* A leave one time unit after its handoff neighbour restarts: the
   restart's Hello reaches the leaver a hop later, so the runner puts
   the leave off until it has instead of failing the handoff check. *)
let test_runner_leave_after_restart () =
  let plan = P.create ~seed:11 (parse "crash=3@1+3,leave=4@5") in
  let requests =
    Oat.Request.
      [
        write 4 16.0; write 0 1.0; write 1 2.0; write 2 4.0; combine 0;
        write 4 100.0;
      ]
  in
  let o =
    R.run ~plan ~tree:(Tree.Build.path 5) ~policy:Oat.Rww.policy ~requests ()
  in
  Alcotest.(check int) "leave executed" 1 o.R.leaves;
  Alcotest.(check (float 1e-9)) "departed value handed off" 16.0
    o.R.values.(3);
  Alcotest.(check (float 1e-9)) "departed value surrendered" 0.0
    o.R.values.(4);
  Alcotest.(check (float 1e-9)) "aggregate conserved" 23.0
    (Array.fold_left ( +. ) 0.0 o.R.values);
  Alcotest.(check int) "write at the departed node skipped" 1 o.R.skipped;
  Alcotest.(check int) "combine exact" 1 o.R.exact;
  Alcotest.(check int) "causal" 0 o.R.causal_violations

(* satellite: capped, jittered retransmission backoff.  A long crash
   window used to double the RTO without bound; with the cap the timer
   can't blow up, with jitter incident channels don't fire in
   lock-step, and the whole thing stays deterministic in the seed. *)
let test_rto_cap_and_jitter_regression () =
  let long_crash ?jitter ?rto_max () =
    let plan = P.create ~seed:5 (parse "drop=0.3,crash=3@10+150") in
    R.run ~plan ?jitter ?rto_max ~repair:true ~tree:(Tree.Build.binary 7)
      ~policy:Oat.Rww.policy
      ~requests:(seeded_requests 7 ~seed:51 ~count:30)
      ()
  in
  let capped = long_crash ~jitter:0.25 ~rto_max:8.0 () in
  Alcotest.(check int) "recovery completed causally" 0
    capped.R.causal_violations;
  Alcotest.(check int) "crash and restart executed" 1 capped.R.crashes;
  Alcotest.(check bool) "recovery did not stall" true
    (capped.R.makespan < 1000.0);
  let capped' = long_crash ~jitter:0.25 ~rto_max:8.0 () in
  Alcotest.(check bool) "jittered run reproducible" true (capped = capped');
  (* jitter off (the default) is bit-compatible with an explicit 0.0 *)
  let plain = long_crash () and zero = long_crash ~jitter:0.0 () in
  Alcotest.(check bool) "default jitter is exactly 0.0" true (plain = zero);
  (* the cap really bites: under loss, backoff runs into the ceiling
     and the probing cadence diverges from the default 64.0 run *)
  Alcotest.(check bool) "cap changes retransmission cadence" true
    (capped.R.retransmits <> plain.R.retransmits);
  (* and it is what keeps the long window from stalling recovery:
     uncapped backoff coasts far past the restart before probing again *)
  Alcotest.(check bool) "cap recovers faster than uncapped backoff" true
    (capped.R.makespan < plain.R.makespan)

let suite =
  [
    Alcotest.test_case "depart conserves the aggregate" `Quick
      test_depart_conserves_aggregate;
    Alcotest.test_case "join resumes participation" `Quick
      test_join_resumes_participation;
    Alcotest.test_case "cascading departs peel the tree" `Quick
      test_cascading_departs;
    Alcotest.test_case "membership guards" `Quick test_membership_guards;
    Alcotest.test_case "initially detached nodes" `Quick
      test_initially_detached;
    Alcotest.test_case "differential churn drill (engine vs sharded)" `Quick
      test_differential_churn_drill;
    Alcotest.test_case "2-domain churn run deterministic" `Quick
      test_sharded_churn_deterministic;
    Alcotest.test_case "flap expansion and spec round-trip" `Quick
      test_flap_expansion_and_roundtrip;
    Alcotest.test_case "plan rejections (flap overlap, churn timeline)" `Quick
      test_plan_rejections;
    Alcotest.test_case "synth_churn deterministic and valid" `Quick
      test_synth_churn_deterministic_and_valid;
    Alcotest.test_case "phases_of_plan partitions the timeline" `Quick
      test_phases_of_plan_partitions_timeline;
    Alcotest.test_case "runner churn: causal and repaired" `Quick
      test_runner_churn_causal_and_repaired;
    Alcotest.test_case "runner churn: reproducible from seed" `Quick
      test_runner_churn_reproducible;
    Alcotest.test_case "runner: initially detached + late join" `Quick
      test_runner_initially_detached;
    Alcotest.test_case "runner: leave waits for the handoff's restart" `Quick
      test_runner_leave_after_restart;
    Alcotest.test_case "rto cap + seeded jitter regression" `Quick
      test_rto_cap_and_jitter_regression;
  ]
