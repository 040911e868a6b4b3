(* Tests for the lease-based mechanism (paper Figure 1) under RWW and
   other policies, checking the paper's lemmas on sequential executions:

   - Lemma 3.1: taken[u][v] = granted[v][u] in quiescent states;
   - Lemma 3.2: granted[u][v] implies taken[u][w] for all w <> v;
   - Lemma 3.4: pndg and snt are empty in quiescent states;
   - Lemma 3.12 (niceness): every combine returns the true aggregate;
   - Lemma 4.3 / Corollary 4.1: RWW is the (1,2)-algorithm;
   - message-count behaviour on the 2-node tree (Figure 2 rows). *)

module Sm = Prng.Splitmix
module M = Oat.Mechanism.Make (Agg.Ops.Sum)

let new_rww ?(ghost = false) tree = M.create ~ghost tree ~policy:Oat.Rww.policy

(* Reference semantics: fold the most recent write per node. *)
module Reference = struct
  type t = { values : float array }

  let create n = { values = Array.make n 0.0 }
  let write t node v = t.values.(node) <- v
  let global t = Array.fold_left ( +. ) 0.0 t.values
end

let check_float = Alcotest.(check (float 1e-9))

(* --------------------------------------------------------------- *)
(* Two-node scenarios: exact message counts.                        *)

let test_two_node_lifecycle () =
  let sys = new_rww (Tree.Build.two_nodes ()) in
  (* write with no lease: free *)
  M.write_sync sys ~node:0 5.0;
  Alcotest.(check int) "write with no lease costs 0" 0 (M.message_total sys);
  (* first combine: probe + response, lease set *)
  check_float "combine sees the write" 5.0 (M.combine_sync sys ~node:1);
  Alcotest.(check int) "cold combine costs 2" 2 (M.message_total sys);
  Alcotest.(check bool) "lease granted 0->1" true (M.granted sys 0 1);
  Alcotest.(check bool) "lease taken at 1" true (M.taken sys 1 0);
  (* warm combine: free *)
  check_float "warm combine" 5.0 (M.combine_sync sys ~node:1);
  Alcotest.(check int) "warm combine costs 0" 2 (M.message_total sys);
  (* first write under lease: one update, lease kept *)
  M.write_sync sys ~node:0 7.0;
  Alcotest.(check int) "update pushed" 3 (M.message_total sys);
  Alcotest.(check bool) "lease survives one write" true (M.granted sys 0 1);
  check_float "cache is fresh" 7.0 (M.gval sys 1);
  (* second consecutive write: update + release, lease broken *)
  M.write_sync sys ~node:0 9.0;
  Alcotest.(check int) "update + release" 5 (M.message_total sys);
  Alcotest.(check bool) "lease broken after two writes" false (M.granted sys 0 1);
  (* combine again: probes anew and still correct *)
  check_float "combine after break" 9.0 (M.combine_sync sys ~node:1);
  Alcotest.(check int) "cold again" 7 (M.message_total sys)

let test_two_node_write_resets_on_combine () =
  (* W C W W: the combine between writes resets RWW's budget, so the
     lease must survive the second write and break on the third. *)
  let sys = new_rww (Tree.Build.two_nodes ()) in
  ignore (M.combine_sync sys ~node:1);
  M.write_sync sys ~node:0 1.0;
  ignore (M.combine_sync sys ~node:1);
  M.write_sync sys ~node:0 2.0;
  Alcotest.(check bool) "lease survives W C W" true (M.granted sys 0 1);
  M.write_sync sys ~node:0 3.0;
  Alcotest.(check bool) "lease breaks on second consecutive W" false
    (M.granted sys 0 1)

let test_combine_from_writer_side () =
  (* A combine at the writing node itself needs the lease in the other
     direction. *)
  let sys = new_rww (Tree.Build.two_nodes ()) in
  M.write_sync sys ~node:0 4.0;
  M.write_sync sys ~node:1 6.0;
  check_float "combine at 0" 10.0 (M.combine_sync sys ~node:0);
  Alcotest.(check bool) "lease 1->0" true (M.granted sys 1 0);
  Alcotest.(check bool) "no lease 0->1" false (M.granted sys 0 1)

(* --------------------------------------------------------------- *)
(* Path scenarios: propagation across multiple hops.                *)

let test_path_first_combine_cost () =
  (* From the initial (lease-free) state, a combine at an end of an
     n-node path probes every other node: 2(n-1) messages
     (Lemma 3.3 with |A| = n-1). *)
  List.iter
    (fun n ->
      let sys = new_rww (Tree.Build.path n) in
      ignore (M.combine_sync sys ~node:0);
      Alcotest.(check int)
        (Printf.sprintf "path %d cold combine" n)
        (2 * (n - 1))
        (M.message_total sys))
    [ 2; 3; 5; 9 ]

let test_path_leases_point_at_requester () =
  let sys = new_rww (Tree.Build.path 4) in
  ignore (M.combine_sync sys ~node:0);
  (* all leases directed toward node 0 *)
  Alcotest.(check bool) "3->2" true (M.granted sys 3 2);
  Alcotest.(check bool) "2->1" true (M.granted sys 2 1);
  Alcotest.(check bool) "1->0" true (M.granted sys 1 0);
  Alcotest.(check bool) "not 0->1" false (M.granted sys 0 1)

let test_path_write_propagates () =
  let sys = new_rww (Tree.Build.path 4) in
  ignore (M.combine_sync sys ~node:0);
  M.reset_message_counters sys;
  M.write_sync sys ~node:3 2.5;
  (* The write travels the whole lease chain: updates 3->2, 2->1, 1->0
     (Lemma 3.5 with |A| = 3). *)
  Alcotest.(check int) "3 updates" 3 (M.message_total sys);
  Alcotest.(check int) "all updates" 3 (M.messages_of_kind sys Simul.Kind.Update);
  check_float "node 0 cache fresh" 2.5 (M.gval sys 0)

let test_path_second_write_releases_chain () =
  let sys = new_rww (Tree.Build.path 4) in
  ignore (M.combine_sync sys ~node:0);
  M.write_sync sys ~node:3 1.0;
  M.reset_message_counters sys;
  M.write_sync sys ~node:3 2.0;
  (* Second consecutive write: 3 updates + releases all the way back
     (Lemma 4.3's cascade). *)
  Alcotest.(check int) "updates" 3 (M.messages_of_kind sys Simul.Kind.Update);
  Alcotest.(check int) "releases" 3 (M.messages_of_kind sys Simul.Kind.Release);
  Alcotest.(check bool) "1->0 broken" false (M.granted sys 1 0);
  Alcotest.(check bool) "2->1 broken" false (M.granted sys 2 1);
  Alcotest.(check bool) "3->2 broken" false (M.granted sys 3 2)

let test_combine_both_ends () =
  let sys = new_rww (Tree.Build.path 3) in
  ignore (M.combine_sync sys ~node:0);
  M.reset_message_counters sys;
  ignore (M.combine_sync sys ~node:2);
  (* Node 2 needs leases 0->1 and 1->2: 2 probes + 2 responses. *)
  Alcotest.(check int) "4 messages" 4 (M.message_total sys);
  (* Now every edge is leased in both directions: combines are free. *)
  M.reset_message_counters sys;
  ignore (M.combine_sync sys ~node:1);
  Alcotest.(check int) "free combine" 0 (M.message_total sys)

let test_star_hub_write () =
  let sys = new_rww (Tree.Build.star 5) in
  (* leaves all combine: leases toward each leaf *)
  for i = 1 to 4 do
    ignore (M.combine_sync sys ~node:i)
  done;
  M.reset_message_counters sys;
  M.write_sync sys ~node:0 3.0;
  (* hub pushes one update per leaf *)
  Alcotest.(check int) "4 updates" 4 (M.message_total sys);
  for i = 1 to 4 do
    check_float "leaf sees value" 3.0 (M.gval sys i)
  done

(* --------------------------------------------------------------- *)
(* Paper invariants checked along random sequential executions.     *)

let random_request rng n =
  if Sm.bernoulli rng 0.5 then Oat.Request.write (Sm.int rng n) (Sm.float rng)
  else Oat.Request.combine (Sm.int rng n)

let run_checking_invariants ~policy ~seed ~n_requests tree =
  let n = Tree.n_nodes tree in
  let rng = Sm.create seed in
  let sys = M.create tree ~policy in
  let reference = Reference.create n in
  for step = 1 to n_requests do
    let q = random_request rng n in
    (match q.Oat.Request.op with
    | Oat.Request.Write v ->
      M.write_sync sys ~node:q.Oat.Request.node v;
      Reference.write reference q.Oat.Request.node v
    | Oat.Request.Combine ->
      let got = M.combine_sync sys ~node:q.Oat.Request.node in
      let want = Reference.global reference in
      if Float.abs (got -. want) > 1e-9 then
        Alcotest.failf "step %d: combine@%d returned %g, expected %g" step
          q.Oat.Request.node got want);
    (* Quiescent-state invariants. *)
    List.iter
      (fun (u, v) ->
        if M.taken sys u v <> M.granted sys v u then
          Alcotest.failf "step %d: Lemma 3.1 violated at (%d,%d)" step u v;
        if M.granted sys u v then
          List.iter
            (fun w ->
              if w <> v && not (M.taken sys u w) then
                Alcotest.failf "step %d: Lemma 3.2 violated at %d (v=%d w=%d)"
                  step u v w)
            (Tree.neighbors tree u))
      (Tree.ordered_pairs tree);
    List.iter
      (fun u ->
        if not (Oat.Mechanism.IntSet.is_empty (M.pndg sys u)) then
          Alcotest.failf "step %d: Lemma 3.4 violated (pndg at %d)" step u;
        List.iter
          (fun v ->
            if not (Oat.Mechanism.IntSet.is_empty (M.snt sys u v)) then
              Alcotest.failf "step %d: Lemma 3.4 violated (snt at %d)" step u)
          (u :: Tree.neighbors tree u))
      (Tree.nodes tree)
  done

let test_invariants_rww () =
  let rng = Sm.create 1234 in
  List.iter
    (fun tree -> run_checking_invariants ~policy:Oat.Rww.policy ~seed:(Sm.bits rng) ~n_requests:150 tree)
    [
      Tree.Build.two_nodes ();
      Tree.Build.path 5;
      Tree.Build.star 6;
      Tree.Build.binary 7;
      Tree.Build.random (Sm.create 5) 12;
    ]

let test_invariants_ab_policies () =
  let rng = Sm.create 4321 in
  List.iter
    (fun (a, b) ->
      run_checking_invariants
        ~policy:(Oat.Ab_policy.policy ~a ~b)
        ~seed:(Sm.bits rng) ~n_requests:120
        (Tree.Build.random (Sm.create (100 + a + (10 * b))) 9))
    [ (1, 1); (1, 3); (2, 2); (3, 1); (2, 4) ]

let test_invariants_degenerate_policies () =
  run_checking_invariants ~policy:Oat.Ab_policy.always_lease ~seed:77
    ~n_requests:120 (Tree.Build.binary 6);
  run_checking_invariants ~policy:Oat.Ab_policy.never_lease ~seed:78
    ~n_requests:120 (Tree.Build.binary 6);
  run_checking_invariants ~policy:(Oat.Policy.noop ~name:"noop-t" ~set_lease:true)
    ~seed:79 ~n_requests:120 (Tree.Build.path 5);
  run_checking_invariants ~policy:(Oat.Policy.noop ~name:"noop-f" ~set_lease:false)
    ~seed:80 ~n_requests:120 (Tree.Build.path 5)

(* A policy drawing set/break decisions at random: Lemma 3.12 promises
   strict consistency for EVERY lease-based algorithm, so even this one
   must return exact aggregates. *)
let random_policy seed : Oat.Policy.factory =
 fun ~node_id ~nbrs:_ ->
  let rng = Sm.create (seed + (node_id * 7919)) in
  {
    Oat.Policy.name = "random";
    on_combine = (fun _ -> ());
    on_write = (fun _ -> ());
    probe_rcvd = (fun _ ~from:_ -> ());
    response_rcvd = (fun _ ~flag:_ ~from:_ -> ());
    update_rcvd = (fun _ ~from:_ -> ());
    release_rcvd = (fun _ ~from:_ -> ());
    set_lease = (fun _ ~target:_ -> Sm.bool rng);
    break_lease = (fun _ ~target:_ -> Sm.bool rng);
    release_policy = (fun _ ~target:_ -> ());
  }

let prop_random_policy_is_nice =
  QCheck.Test.make ~name:"any lease-based algorithm is nice (Lemma 3.12)"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 2 12))
    (fun (seed, n) ->
      let rng = Sm.create seed in
      let tree = Tree.Build.random rng n in
      run_checking_invariants ~policy:(random_policy seed) ~seed:(seed + 1)
        ~n_requests:60 tree;
      true)

(* --------------------------------------------------------------- *)
(* RWW is the (1,2)-algorithm (Lemma 4.3, Corollary 4.1).           *)

let test_rww_is_one_two () =
  let rng = Sm.create 2026 in
  let tree = Tree.Build.random rng 8 in
  let n = Tree.n_nodes tree in
  let sys = new_rww tree in
  (* After a combine at w, every ordered pair (u,v) with w on v's side
     has granted[u][v]. *)
  let w = 3 in
  ignore (M.combine_sync sys ~node:w);
  List.iter
    (fun (u, v) ->
      if Tree.in_subtree tree v u w then
        Alcotest.(check bool)
          (Printf.sprintf "granted %d->%d after combine@%d" u v w)
          true (M.granted sys u v))
    (Tree.ordered_pairs tree);
  (* After two consecutive writes at x, every pair (u,v) with x on u's
     side has lost the lease. *)
  let x = (w + 1) mod n in
  M.write_sync sys ~node:x 1.0;
  M.write_sync sys ~node:x 2.0;
  List.iter
    (fun (u, v) ->
      if Tree.in_subtree tree u v x then
        Alcotest.(check bool)
          (Printf.sprintf "broken %d->%d after writes@%d" u v x)
          false (M.granted sys u v))
    (Tree.ordered_pairs tree)

let test_ab12_equals_rww () =
  (* The (1,2)-policy and RWW must generate identical costs and identical
     lease states on any sequential run. *)
  let rng = Sm.create 555 in
  for _ = 1 to 10 do
    let tree = Tree.Build.random rng (2 + Sm.int rng 9) in
    let n = Tree.n_nodes tree in
    let a = new_rww tree in
    let b = M.create tree ~policy:(Oat.Ab_policy.policy ~a:1 ~b:2) in
    for _ = 1 to 80 do
      let q = random_request rng n in
      (match q.Oat.Request.op with
      | Oat.Request.Write v ->
        M.write_sync a ~node:q.Oat.Request.node v;
        M.write_sync b ~node:q.Oat.Request.node v
      | Oat.Request.Combine ->
        let va = M.combine_sync a ~node:q.Oat.Request.node in
        let vb = M.combine_sync b ~node:q.Oat.Request.node in
        check_float "same value" va vb);
      Alcotest.(check int) "same cumulative cost" (M.message_total a)
        (M.message_total b);
      List.iter
        (fun (u, v) ->
          Alcotest.(check bool) "same lease state" (M.granted a u v)
            (M.granted b u v))
        (Tree.ordered_pairs tree)
    done
  done

let test_always_never_extremes () =
  let tree = Tree.Build.path 4 in
  (* always_lease: after one warm-up combine, writes push updates and
     combines are free. *)
  let sys = M.create tree ~policy:Oat.Ab_policy.always_lease in
  ignore (M.combine_sync sys ~node:0);
  M.reset_message_counters sys;
  for _ = 1 to 5 do
    M.write_sync sys ~node:3 1.0
  done;
  Alcotest.(check int) "always: 3 updates per write, no releases" 15
    (M.message_total sys);
  Alcotest.(check int) "always: no releases" 0
    (M.messages_of_kind sys Simul.Kind.Release);
  (* never_lease: every combine pays full probing, writes are free. *)
  let sys = M.create tree ~policy:Oat.Ab_policy.never_lease in
  for _ = 1 to 3 do
    M.write_sync sys ~node:3 1.0
  done;
  Alcotest.(check int) "never: writes free" 0 (M.message_total sys);
  ignore (M.combine_sync sys ~node:0);
  ignore (M.combine_sync sys ~node:0);
  Alcotest.(check int) "never: 6 messages per combine" 12 (M.message_total sys)

(* --------------------------------------------------------------- *)
(* Operators other than sum.                                        *)

module Mmin = Oat.Mechanism.Make (Agg.Ops.Min)
module Mmax = Oat.Mechanism.Make (Agg.Ops.Max)

let test_min_max_operators () =
  let tree = Tree.Build.binary 7 in
  let smin = Mmin.create tree ~policy:Oat.Rww.policy in
  let smax = Mmax.create tree ~policy:Oat.Rww.policy in
  let values = [ (0, 4.0); (1, -2.0); (2, 9.0); (3, 0.5); (4, 7.0); (5, 1.0); (6, 3.0) ] in
  List.iter
    (fun (node, v) ->
      Mmin.write_sync smin ~node v;
      Mmax.write_sync smax ~node v)
    values;
  (* Min of written values and the identity of unwritten... all written. *)
  check_float "min" (-2.0) (Mmin.combine_sync smin ~node:6);
  check_float "max" 9.0 (Mmax.combine_sync smax ~node:6)

(* --------------------------------------------------------------- *)
(* Cost decomposition (Lemma 3.9): the grand total equals the sum of
   C(sigma,u,v) over ordered pairs.                                  *)

let test_cost_decomposition () =
  let rng = Sm.create 31415 in
  for _ = 1 to 10 do
    let tree = Tree.Build.random rng (2 + Sm.int rng 10) in
    let n = Tree.n_nodes tree in
    let sys = new_rww tree in
    for _ = 1 to 100 do
      match random_request rng n with
      | { Oat.Request.op = Oat.Request.Write v; node } -> M.write_sync sys ~node v
      | { Oat.Request.op = Oat.Request.Combine; node } ->
        ignore (M.combine_sync sys ~node)
    done;
    let wire = Simul.Network.total (M.network sys) in
    let decomposed =
      List.fold_left
        (fun acc (u, v) -> acc + M.cost_between sys u v)
        0 (Tree.ordered_pairs tree)
    in
    Alcotest.(check int) "Lemma 3.9 decomposition" wire decomposed;
    Alcotest.(check int) "ledger total" (M.message_total sys) decomposed
  done

(* --------------------------------------------------------------- *)
(* Ghost logs.                                                      *)

let test_ghost_log_basic () =
  let sys = new_rww ~ghost:true (Tree.Build.path 3) in
  M.write_sync sys ~node:0 2.0;
  ignore (M.combine_sync sys ~node:2);
  M.write_sync sys ~node:1 3.0;
  ignore (M.combine_sync sys ~node:2);
  let log2 = M.log sys 2 in
  (* Node 2's log contains both writes and its two combines. *)
  let writes = List.filter Oat.Ghost.is_write log2 in
  Alcotest.(check int) "2 writes known" 2 (List.length writes);
  let combines = List.filter (fun e -> not (Oat.Ghost.is_write e)) log2 in
  Alcotest.(check int) "2 combines logged" 2 (List.length combines);
  (* The second combine's recentwrites names both writers. *)
  (match List.rev combines with
  | Oat.Ghost.Combine { crecent; cvalue; _ } :: _ ->
    check_float "combine value" 5.0 cvalue;
    Alcotest.(check bool) "recent write at 0" true (List.mem_assoc 0 crecent);
    Alcotest.(check int) "index at 0" 0 (List.assoc 0 crecent);
    Alcotest.(check int) "no write at 2" (-1) (List.assoc 2 crecent)
  | _ -> Alcotest.fail "expected combine entry");
  Alcotest.(check int) "completed at 2" 2 (M.completed_requests sys 2)

let test_ghost_disabled_by_default () =
  let sys = new_rww (Tree.Build.path 3) in
  M.write_sync sys ~node:0 2.0;
  ignore (M.combine_sync sys ~node:2);
  Alcotest.(check int) "no log" 0 (List.length (M.log sys 2))

let suite =
  [
    Alcotest.test_case "two-node lifecycle" `Quick test_two_node_lifecycle;
    Alcotest.test_case "combine resets write budget" `Quick
      test_two_node_write_resets_on_combine;
    Alcotest.test_case "combine from writer side" `Quick
      test_combine_from_writer_side;
    Alcotest.test_case "cold combine cost on paths" `Quick
      test_path_first_combine_cost;
    Alcotest.test_case "leases point at requester" `Quick
      test_path_leases_point_at_requester;
    Alcotest.test_case "write propagates along chain" `Quick
      test_path_write_propagates;
    Alcotest.test_case "second write releases chain" `Quick
      test_path_second_write_releases_chain;
    Alcotest.test_case "combines at both ends" `Quick test_combine_both_ends;
    Alcotest.test_case "star hub write" `Quick test_star_hub_write;
    Alcotest.test_case "invariants under RWW" `Quick test_invariants_rww;
    Alcotest.test_case "invariants under (a,b)" `Quick test_invariants_ab_policies;
    Alcotest.test_case "invariants under degenerate policies" `Quick
      test_invariants_degenerate_policies;
    Alcotest.test_case "RWW is (1,2)" `Quick test_rww_is_one_two;
    Alcotest.test_case "ab(1,2) == RWW" `Quick test_ab12_equals_rww;
    Alcotest.test_case "always/never extremes" `Quick test_always_never_extremes;
    Alcotest.test_case "min/max operators" `Quick test_min_max_operators;
    Alcotest.test_case "cost decomposition (Lemma 3.9)" `Quick
      test_cost_decomposition;
    Alcotest.test_case "ghost log basic" `Quick test_ghost_log_basic;
    Alcotest.test_case "ghost disabled by default" `Quick
      test_ghost_disabled_by_default;
    QCheck_alcotest.to_alcotest prop_random_policy_is_nice;
  ]

(* Appended tests: gather requests, sequential confluence, and empty
   releases. *)

let test_gather_returns_recentwrites () =
  let sys = new_rww ~ghost:true (Tree.Build.path 3) in
  M.write_sync sys ~node:0 2.0;
  M.write_sync sys ~node:0 3.0;
  M.write_sync sys ~node:2 5.0;
  let value, recent = M.gather_sync sys ~node:1 in
  check_float "gather value" 8.0 value;
  Alcotest.(check int) "node 0's last write index" 1 (List.assoc 0 recent);
  Alcotest.(check int) "node 2's last write index" 0 (List.assoc 2 recent);
  Alcotest.(check int) "node 1 never wrote" (-1) (List.assoc 1 recent);
  (* A later gather sees newer indices. *)
  M.write_sync sys ~node:1 1.0;
  let _, recent = M.gather_sync sys ~node:1 in
  Alcotest.(check int) "node 1 now at 0... (after its first gather)" 1
    (List.assoc 1 recent)

let test_gather_requires_ghost () =
  let sys = new_rww (Tree.Build.path 3) in
  match M.gather_sync sys ~node:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_sequential_confluence () =
  (* Within one sequential request, the quiescent outcome must not
     depend on message delivery order: run the same request sequence
     with deterministic scan-order delivery and with randomized
     delivery, and compare final states and message counts. *)
  let rng = Sm.create 13579 in
  for _ = 1 to 10 do
    let tree = Tree.Build.random rng (2 + Sm.int rng 9) in
    let n = Tree.n_nodes tree in
    let sigma =
      List.init 80 (fun i ->
          if Sm.bool rng then Oat.Request.write (Sm.int rng n) (float_of_int i)
          else Oat.Request.combine (Sm.int rng n))
    in
    let det = new_rww tree in
    let rnd = new_rww tree in
    let shuffle_rng = Sm.split rng in
    let run_random_order (q : float Oat.Request.t) =
      (match q.op with
      | Oat.Request.Write v -> M.write rnd ~node:q.node v
      | Oat.Request.Combine -> M.combine rnd ~node:q.node (fun _ -> ()));
      let net = M.network rnd and handler = M.handler rnd in
      while Simul.Network.deliver_random net shuffle_rng ~handler do () done
    in
    List.iter
      (fun (q : float Oat.Request.t) ->
        (match q.op with
        | Oat.Request.Write v -> M.write_sync det ~node:q.node v
        | Oat.Request.Combine -> ignore (M.combine_sync det ~node:q.node));
        run_random_order q;
        (* same quiescent lease state and same cumulative cost *)
        List.iter
          (fun (u, v) ->
            Alcotest.(check bool) "same lease" (M.granted det u v)
              (M.granted rnd u v))
          (Tree.ordered_pairs tree);
        Alcotest.(check int) "same cost" (M.message_total det)
          (M.message_total rnd))
      sigma
  done

let test_empty_release_handled () =
  (* A policy that breaks leases it never received updates on sends a
     release with an empty id set; onrelease must survive it. *)
  let break_everything : Oat.Policy.factory =
   fun ~node_id:_ ~nbrs:_ ->
    {
      Oat.Policy.name = "break-everything";
      on_combine = (fun _ -> ());
      on_write = (fun _ -> ());
      probe_rcvd = (fun _ ~from:_ -> ());
      response_rcvd = (fun _ ~flag:_ ~from:_ -> ());
      update_rcvd = (fun _ ~from:_ -> ());
      release_rcvd = (fun _ ~from:_ -> ());
      set_lease = (fun _ ~target:_ -> true);
      break_lease = (fun _ ~target:_ -> true);
      release_policy = (fun _ ~target:_ -> ());
    }
  in
  let sys = M.create (Tree.Build.star 5) ~policy:break_everything in
  (* Exercise combine/write cycles; every update triggers eager releases
     with whatever (possibly empty) uaw sets exist. *)
  for i = 1 to 4 do
    ignore (M.combine_sync sys ~node:i)
  done;
  M.write_sync sys ~node:0 1.0;
  M.write_sync sys ~node:1 2.0;
  ignore (M.combine_sync sys ~node:2);
  check_float "still strictly consistent" 3.0 (M.combine_sync sys ~node:3)

let prop_confluence_small =
  QCheck.Test.make ~name:"sequential executions are confluent" ~count:30
    QCheck.(pair (int_bound 1_000_000) (int_range 2 7))
    (fun (seed, n) ->
      let rng = Sm.create seed in
      let tree = Tree.Build.random rng n in
      let det = new_rww tree in
      let rnd = new_rww tree in
      let shuffle_rng = Sm.split rng in
      for i = 1 to 40 do
        let node = Sm.int rng n in
        if Sm.bool rng then begin
          M.write_sync det ~node (float_of_int i);
          M.write rnd ~node (float_of_int i)
        end
        else begin
          ignore (M.combine_sync det ~node);
          M.combine rnd ~node (fun _ -> ())
        end;
        let net = M.network rnd and handler = M.handler rnd in
        while Simul.Network.deliver_random net shuffle_rng ~handler do () done
      done;
      M.message_total det = M.message_total rnd
      && List.for_all
           (fun (u, v) -> M.granted det u v = M.granted rnd u v)
           (Tree.ordered_pairs tree))

let extra_suite =
  [
    Alcotest.test_case "gather returns recentwrites" `Quick
      test_gather_returns_recentwrites;
    Alcotest.test_case "gather requires ghost" `Quick test_gather_requires_ghost;
    Alcotest.test_case "sequential confluence" `Quick test_sequential_confluence;
    Alcotest.test_case "empty releases handled" `Quick test_empty_release_handled;
    QCheck_alcotest.to_alcotest prop_confluence_small;
  ]

let suite = suite @ extra_suite

(* Message-kind purity (Lemma 3.3(3) and Lemma 3.5(3)): a combine never
   sends updates or releases; a write never sends probes or responses. *)
let test_message_kind_purity () =
  let rng = Sm.create 864 in
  for _ = 1 to 10 do
    let tree = Tree.Build.random rng (2 + Sm.int rng 9) in
    let n = Tree.n_nodes tree in
    let sys = new_rww tree in
    for i = 1 to 60 do
      let node = Sm.int rng n in
      let before k = M.messages_of_kind sys k in
      if Sm.bool rng then begin
        let p = before Simul.Kind.Probe and r = before Simul.Kind.Response in
        M.write_sync sys ~node (float_of_int i);
        Alcotest.(check int) "write sends no probes" p
          (M.messages_of_kind sys Simul.Kind.Probe);
        Alcotest.(check int) "write sends no responses" r
          (M.messages_of_kind sys Simul.Kind.Response)
      end
      else begin
        let u = before Simul.Kind.Update and rl = before Simul.Kind.Release in
        ignore (M.combine_sync sys ~node);
        Alcotest.(check int) "combine sends no updates" u
          (M.messages_of_kind sys Simul.Kind.Update);
        Alcotest.(check int) "combine sends no releases" rl
          (M.messages_of_kind sys Simul.Kind.Release)
      end
    done
  done

(* Gather returns exactly the most recent write index per node
   (the recentwrites oracle, on random sequential runs). *)
let prop_gather_matches_reference =
  QCheck.Test.make ~name:"gather retval = reference recentwrites" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 2 9))
    (fun (seed, n) ->
      let rng = Sm.create seed in
      let tree = Tree.Build.random rng n in
      let sys = new_rww ~ghost:true tree in
      let last = Array.make n (-1) in
      let counter = Array.make n 0 in
      let ok = ref true in
      for i = 1 to 60 do
        let node = Sm.int rng n in
        if Sm.bool rng then begin
          M.write_sync sys ~node (float_of_int i);
          last.(node) <- counter.(node);
          counter.(node) <- counter.(node) + 1
        end
        else begin
          let _, recent = M.gather_sync sys ~node in
          List.iter
            (fun (u, idx) -> if idx <> last.(u) then ok := false)
            recent;
          counter.(node) <- counter.(node) + 1
        end
      done;
      !ok)

let suite =
  suite
  @ [
      Alcotest.test_case "message-kind purity" `Quick test_message_kind_purity;
      QCheck_alcotest.to_alcotest prop_gather_matches_reference;
    ]

(* --------------------------------------------------------------- *)
(* Golden message counts: fixed-seed RWW workloads on the paper's
   stock topologies, with the realized totals pinned.  Any change to
   these numbers means the mechanism's externally visible behaviour
   changed — a representation refactor must keep them bit-identical. *)

let golden_requests n ~seed ~n_requests =
  let rng = Sm.create seed in
  List.init n_requests (fun i ->
      let node = Sm.int rng n in
      if Sm.bool rng then Oat.Request.write node (float_of_int i)
      else Oat.Request.combine node)

let kind_counts sys =
  ( M.messages_of_kind sys Simul.Kind.Probe,
    M.messages_of_kind sys Simul.Kind.Response,
    M.messages_of_kind sys Simul.Kind.Update,
    M.messages_of_kind sys Simul.Kind.Release )

let golden_seq name tree ~seed ~expect =
  let sys = new_rww tree in
  ignore
    (M.run_sequential sys
       (golden_requests (Tree.n_nodes tree) ~seed ~n_requests:200));
  Alcotest.(check (pair int (pair (pair int int) (pair int int))))
    name
    expect
    (M.message_total sys, (kind_counts sys |> fun (p, r, u, l) -> ((p, r), (u, l))))

let test_golden_sequential_totals () =
  golden_seq "line-16" (Tree.Build.path 16) ~seed:101
    ~expect:(1557, ((281, 281), (739, 256)));
  golden_seq "star-16" (Tree.Build.star 16) ~seed:102
    ~expect:(574, ((106, 106), (273, 89)));
  golden_seq "binary-15" (Tree.Build.binary 15) ~seed:103
    ~expect:(974, ((168, 168), (483, 155)))

(* Fixed-seed concurrent run with ghost logs on: pins the realized total
   of an adversarially interleaved execution, so both the dense lease
   state and the delta-encoded ghost shipping are provably inert to the
   schedule.  The causal verdict must stay clean. *)
let test_golden_concurrent_total () =
  let n = 31 in
  let tree = Tree.Build.binary n in
  let rng = Sm.create 777 in
  let sys = new_rww ~ghost:true tree in
  let requests =
    Array.init 150 (fun i ->
        let node = Sm.int rng n in
        if Sm.bool rng then fun () -> M.write sys ~node (float_of_int i)
        else fun () -> M.combine sys ~node (fun _ -> ()))
  in
  Simul.Engine.run_concurrent ~rng:(Sm.split rng) (M.network sys)
    ~handler:(M.handler sys) ~requests;
  Alcotest.(check int) "pinned concurrent total" 438 (M.message_total sys);
  let logs = Array.init n (fun u -> M.log sys u) in
  Alcotest.(check int) "causally consistent" 0
    (List.length
       (Consistency.Causal.check
          (module Agg.Ops.Sum : Agg.Operator.S with type t = float)
          ~n_nodes:n ~logs))

let suite =
  suite
  @ [
      Alcotest.test_case "golden sequential totals" `Quick
        test_golden_sequential_totals;
      Alcotest.test_case "golden concurrent total" `Quick
        test_golden_concurrent_total;
    ]

(* --------------------------------------------------------------- *)
(* Representation audit: Mechanism.check_invariants compares every
   incrementally maintained piece of dense state (lease counters, gval
   cache, snt popcounts, sntprobes membership counts, per-channel
   update logs, delta-encoded ghost state) against a from-scratch
   recomputation.  Fuzzed over 10k operations: sequential mixed
   workloads on the stock topologies, plus a concurrent run audited
   after every single request initiation and message delivery. *)

let test_fuzz_invariants_sequential () =
  let rng = Sm.create 20260806 in
  List.iter
    (fun tree ->
      let n = Tree.n_nodes tree in
      let sys = new_rww tree in
      for i = 1 to 1250 do
        let node = Sm.int rng n in
        if Sm.bool rng then M.write_sync sys ~node (float_of_int i)
        else ignore (M.combine_sync sys ~node);
        M.check_invariants sys
      done)
    [
      Tree.Build.path 9;
      Tree.Build.star 8;
      Tree.Build.binary 15;
      Tree.Build.random (Sm.create 9) 12;
    ]

let test_fuzz_invariants_concurrent () =
  let n = 15 in
  let tree = Tree.Build.binary n in
  let rng = Sm.create 4242 in
  let sys = new_rww ~ghost:true tree in
  for op = 1 to 5000 do
    (if Sm.bernoulli rng 0.3 then begin
       let node = Sm.int rng n in
       if Sm.bool rng then M.write sys ~node (float_of_int op)
       else M.combine sys ~node (fun _ -> ())
     end
     else
       ignore (Simul.Network.deliver_any (M.network sys) ~handler:(M.handler sys)));
    M.check_invariants sys
  done;
  ignore (M.run_to_quiescence sys);
  M.check_invariants sys

(* Regression for the unbounded sntupdates leak: the transcription kept
   every forwarded-update tuple forever (onrelease only filtered a copy),
   so a write-heavy workload through a relay node grew the set linearly
   with the execution.  The per-channel log must instead stay bounded:
   releases and uaw resets consume its entries. *)
let test_sntupdates_bounded () =
  let tree = Tree.Build.path 8 in
  let n = Tree.n_nodes tree in
  let rng = Sm.create 909 in
  let sys = new_rww tree in
  let high_water = ref 0 in
  let forwarded = ref 0 in
  for i = 1 to 2000 do
    let node = Sm.int rng n in
    (* write-heavy: relays keep forwarding updates through live leases *)
    if Sm.bernoulli rng 0.8 then M.write_sync sys ~node (float_of_int i)
    else ignore (M.combine_sync sys ~node);
    for u = 0 to n - 1 do
      high_water := max !high_water (M.sntupdates_length sys u)
    done;
    forwarded := max !forwarded (M.messages_of_kind sys Simul.Kind.Update)
  done;
  if !high_water > 16 then
    Alcotest.failf "sntupdates high-water %d: leak is back (forwarded %d)"
      !high_water !forwarded;
  (* sanity: the workload really did route updates through relays *)
  Alcotest.(check bool) "updates flowed" true (!forwarded > 1000)

(* Lease-all retention: with leases everywhere and none ever released,
   every update a node receives stays in that channel's update log (as
   uaw[v], and as an sntupdates tuple when it was forwarded).  Two
   byte-coded deltas per record keep the growth of the whole system's
   reachable heap under half a word per Update message sent; the two
   int-array structures the log replaced retained about 4.5. *)
let retained_words_per_update tree ~writes ~node =
  let sys =
    M.create tree ~policy:(Oat.Policy.noop ~name:"lease-all" ~set_lease:true)
  in
  ignore (M.combine_sync sys ~node:0);
  let w0 = Obj.reachable_words (Obj.repr sys) in
  let u0 = M.messages_of_kind sys Simul.Kind.Update in
  for i = 1 to writes do
    M.write_sync sys ~node:(node i) (float_of_int i)
  done;
  let w1 = Obj.reachable_words (Obj.repr sys) in
  float_of_int (w1 - w0)
  /. float_of_int (M.messages_of_kind sys Simul.Kind.Update - u0)

let test_lease_all_retention () =
  let check name words =
    Printf.printf "%s: %.2f retained words per Update\n" name words;
    if words > 0.5 then
      Alcotest.failf "%s: %.2f retained words per Update (budget 0.5)" name
        words
  in
  check "path-64 leaf writes"
    (retained_words_per_update (Tree.Build.path 64) ~writes:10_000
       ~node:(fun _ -> 63));
  let rng = Sm.create 1023 in
  check "binary-1023 uniform writes"
    (retained_words_per_update (Tree.Build.binary 1023) ~writes:20_000
       ~node:(fun _ -> Sm.int rng 1023))

(* Multi-byte log deltas.  On a 601-star under (1,600) the hub forwards
   the updates of hundreds of other leaves between two updates from one
   leaf, so the sntid deltas in its logs need more than one byte, and
   every release's beta is such a record (the RWW goldens keep deltas at
   1).  Totals pinned from the representation before the delta-coded
   log; the audit runs after every request. *)
let test_golden_multibyte_deltas () =
  let n = 601 in
  let sys =
    M.create (Tree.Build.star n) ~policy:(Oat.Ab_policy.policy ~a:1 ~b:600)
  in
  let rng = Sm.create 601 in
  for i = 1 to 4000 do
    let node = Sm.int rng n in
    if Sm.bernoulli rng 0.01 then ignore (M.combine_sync sys ~node)
    else M.write_sync sys ~node (float_of_int i);
    M.check_invariants sys
  done;
  Alcotest.(check (pair int (pair (pair int int) (pair int int))))
    "star-601 (1,600)"
    (25513, ((637, 637), (24208, 31)))
    (M.message_total sys, (kind_counts sys |> fun (p, r, u, l) -> ((p, r), (u, l))))

(* The widest log records: on a double star under lease-all, a hub that
   forwards 300 updates of its own leaf between two updates crossing the
   middle edge logs the next crossing update with both deltas above 255
   (9 bytes each).  Alternating runs of 2-byte records with these puts
   an 18-byte record at the edge of each buffer size as the log grows;
   the audit checks that every log stays inside its buffer. *)
let test_wide_log_records () =
  let k = 3 in
  let n = (2 * k) + 2 in
  (* hubs 0 and 1; leaves 2..k+1 on hub 0, k+2..2k+1 on hub 1 *)
  let edges =
    ((0, 1) :: List.init k (fun i -> (0, 2 + i)))
    @ List.init k (fun i -> (1, k + 2 + i))
  in
  let sys =
    M.create (Tree.create ~n ~edges)
      ~policy:(Oat.Policy.noop ~name:"lease-all" ~set_lease:true)
  in
  for u = 0 to n - 1 do
    ignore (M.combine_sync sys ~node:u)
  done;
  let far = 2 and near = k + 2 in
  for round = 1 to 12 do
    for i = 1 to 7 do
      M.write_sync sys ~node:near (float_of_int i);
      M.check_invariants sys
    done;
    for _ = 1 to 2 do
      for i = 1 to 300 do
        M.write_sync sys ~node:far (float_of_int i)
      done;
      M.write_sync sys ~node:near (float_of_int round);
      M.check_invariants sys
    done
  done;
  (* hub 0 still holds every id hub 1 sent it, 24 of them after a gap *)
  let ids = Oat.Mechanism.IntSet.elements (M.uaw sys 0 1) in
  let rec wide = function
    | a :: (b :: _ as rest) -> (if b - a > 255 then 1 else 0) + wide rest
    | _ -> 0
  in
  Alcotest.(check (pair int int)) "uaw ids, wide gaps" (108, 24)
    (List.length ids, wide ids)

(* Ghost-log shipping in bytes.  Alternating write/combine keeps the
   lease chain of a 15-node path alive, so every write pushes updates
   down the whole chain with the write log piggybacked.  Each channel
   ships only the suffix it has not sent yet, so every round costs the
   same bytes; shipping the whole log per message would make the total
   quadratic in the rounds.  Bytes are summed over every frame sent,
   through an outbox wrapped around the system's own network. *)
let ghost_bytes rounds =
  let sys = new_rww ~ghost:true (Tree.Build.path 15) in
  let net = M.network sys and pool = M.frame_pool sys in
  let bytes = ref 0 in
  M.set_outbox sys
    ~send:(fun ~src ~dst f ->
      bytes := !bytes + Simul.Frame.length f;
      Simul.Network.send net ~src ~dst f)
    ~pool_for:(fun _ -> pool);
  ignore (M.combine_sync sys ~node:0);
  for i = 1 to rounds do
    M.write_sync sys ~node:14 (float_of_int i);
    ignore (M.combine_sync sys ~node:0)
  done;
  !bytes

let test_ghost_shipping_linear () =
  let b50 = ghost_bytes 50 and b100 = ghost_bytes 100 and b200 = ghost_bytes 200 in
  Alcotest.(check (list int)) "bytes at 50/100/200 rounds"
    [ 48_342; 95_942; 191_142 ] [ b50; b100; b200 ];
  Alcotest.(check int) "equal bytes per round" (2 * (b100 - b50)) (b200 - b100)

(* Per-neighbour policy state is sized by degree: the instance the
   factory builds for the last leaf of a binary tree (one neighbour,
   with the largest ids in the tree) holds the same number of words on
   1023 and on 16383 nodes. *)
let test_policy_state_sized_by_degree () =
  let leaf_words factory n =
    let tree = Tree.Build.binary n in
    let u = n - 1 in
    let p : Oat.Policy.t = factory ~node_id:u ~nbrs:(Tree.neighbors tree u) in
    Obj.reachable_words (Obj.repr p)
  in
  List.iter
    (fun (name, factory) ->
      Alcotest.(check int)
        (name ^ ": last leaf's words, binary-16383 = binary-1023")
        (leaf_words factory 1023) (leaf_words factory 16383))
    [
      ("rww", Oat.Rww.policy);
      ("ab(2,3)", Oat.Ab_policy.policy ~a:2 ~b:3);
      ("timed", Oat.Timed_policy.policy ~now:(fun () -> 0.0) ~ttl:1.0);
    ]

(* Hooks name neighbours by slot.  On binary-7 node 1's neighbours are
   [0; 3; 4], so a combine at leaf 3 reaches node 1's [probercvd] and
   [setlease] with slot 1, not node id 3; and when node 1 grants, its
   view reads the leases it took from 0 and 4 at slots 0 and 2. *)
let test_hooks_receive_slots () =
  let tree = Tree.Build.binary 7 in
  Alcotest.(check (list int)) "node 1's neighbours" [ 0; 3; 4 ]
    (Tree.neighbors tree 1);
  let seen = ref [] in
  let recording : Oat.Policy.factory =
   fun ~node_id ~nbrs ->
    let note hook i = if node_id = 1 then seen := (hook, i) :: !seen in
    {
      (Oat.Policy.noop ~name:"recording" ~set_lease:true ~node_id ~nbrs) with
      probe_rcvd = (fun _ ~from -> note "probe_rcvd" from);
      set_lease =
        (fun view ~target ->
          note "set_lease" target;
          if node_id = 1 then
            Alcotest.(check (list bool)) "taken, by slot" [ true; false; true ]
              (List.init 3 (Oat.Policy.taken view));
          true);
    }
  in
  let sys = M.create tree ~policy:recording in
  M.write_sync sys ~node:5 2.0;
  check_float "combine at 3" 2.0 (M.combine_sync sys ~node:3);
  Alcotest.(check (list (pair string int)))
    "node 1's hook arguments"
    [ ("probe_rcvd", 1); ("set_lease", 1) ]
    (List.rev !seen);
  (* the handler's slot search is the one place a node id is resolved:
     a frame from a non-neighbour is refused, and still released *)
  let f = Simul.Frame.alloc (M.frame_pool sys) in
  Simul.Frame.set_kind f (Simul.Kind.index Simul.Kind.Probe);
  Alcotest.check_raises "frame from a non-neighbour"
    (Invalid_argument "Mechanism.handler: 5 is not a neighbour of 1")
    (fun () -> M.handler sys ~src:5 ~dst:1 f);
  Alcotest.(check int) "refused frame released" 0
    (Simul.Frame.live (M.frame_pool sys))

(* Set-up is linear in the tree: the words [create] allocates per node
   under lease-all (minor words plus words allocated straight into the
   major heap, after a warm-up create) stay under one bound on
   binary-4095 and on binary-16383, about 96 on both.  Node columns
   that re-copy themselves at every 1024-node block read 138 and 276,
   so the bound sits between. *)
let create_words_per_node n =
  let tree = Tree.Build.binary n in
  let policy = Oat.Policy.noop ~name:"lease-all" ~set_lease:true in
  ignore (Sys.opaque_identity (M.create tree ~policy));
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let sys = M.create tree ~policy in
  let minor1, promoted1, major1 = Gc.counters () in
  ignore (Sys.opaque_identity sys);
  let direct_major = major1 -. promoted1 -. (major0 -. promoted0) in
  (minor1 -. minor0 +. direct_major) /. float_of_int n

let test_create_words_per_node () =
  List.iter
    (fun n ->
      let w = create_words_per_node n in
      if w > 115.0 then
        Alcotest.failf "binary-%d: create allocates %.1f words per node (bound 115)"
          n w)
    [ 4095; 16383 ]

let suite =
  suite
  @ [
      Alcotest.test_case "policy state sized by degree" `Quick
        test_policy_state_sized_by_degree;
      Alcotest.test_case "policy hooks receive slots" `Quick
        test_hooks_receive_slots;
      Alcotest.test_case "create allocates linearly in the tree" `Quick
        test_create_words_per_node;
      Alcotest.test_case "invariant audit, sequential fuzz" `Quick
        test_fuzz_invariants_sequential;
      Alcotest.test_case "invariant audit, concurrent fuzz" `Quick
        test_fuzz_invariants_concurrent;
      Alcotest.test_case "sntupdates stays bounded" `Quick
        test_sntupdates_bounded;
      Alcotest.test_case "lease-all retention per Update" `Quick
        test_lease_all_retention;
      Alcotest.test_case "golden multi-byte log deltas" `Quick
        test_golden_multibyte_deltas;
      Alcotest.test_case "widest log records stay in bounds" `Quick
        test_wide_log_records;
      Alcotest.test_case "ghost shipping is linear in writes" `Quick
        test_ghost_shipping_linear;
    ]
