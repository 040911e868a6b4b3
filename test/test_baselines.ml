(* Tests for the static-strategy baselines (Astrolabe, and MDS-2 as the
   never-lease policy) and the uniform algorithm driver. *)

module Sm = Prng.Splitmix
module Astro = Baselines.Astrolabe.Make (Agg.Ops.Sum)

let check_float = Alcotest.(check (float 1e-9))

let test_astrolabe_costs () =
  let tree = Tree.Build.binary 7 in
  let sys = Astro.create tree in
  Astro.write sys ~node:3 5.0;
  (* one update per edge, directed away from the writer *)
  Alcotest.(check int) "write floods n-1" 6 (Astro.message_total sys);
  check_float "combine free and correct" 5.0 (Astro.combine sys ~node:6);
  Alcotest.(check int) "combine costs 0" 6 (Astro.message_total sys)

let test_astrolabe_correctness () =
  let rng = Sm.create 404 in
  let tree = Tree.Build.random rng 10 in
  let sys = Astro.create tree in
  let latest = Array.make 10 0.0 in
  for _ = 1 to 200 do
    if Sm.bool rng then begin
      let node = Sm.int rng 10 and v = Sm.float rng in
      latest.(node) <- v;
      Astro.write sys ~node v
    end
    else begin
      let node = Sm.int rng 10 in
      check_float "astrolabe combine"
        (Array.fold_left ( +. ) 0.0 latest)
        (Astro.combine sys ~node)
    end
  done

let test_mds2_costs () =
  let tree = Tree.Build.binary 7 in
  let sys = Baselines.Algorithm.mds2 tree in
  Alcotest.(check string) "name" "mds-2" sys.name;
  sys.write ~node:3 5.0;
  Alcotest.(check int) "write free" 0 (sys.message_total ());
  check_float "combine correct" 5.0 (sys.combine ~node:6);
  (* probe + response on every edge *)
  Alcotest.(check int) "combine costs 2(n-1)" 12 (sys.message_total ())

let test_mds2_correctness () =
  let rng = Sm.create 505 in
  let tree = Tree.Build.random rng 9 in
  let sys = Baselines.Algorithm.mds2 tree in
  let latest = Array.make 9 0.0 in
  for _ = 1 to 200 do
    if Sm.bool rng then begin
      let node = Sm.int rng 9 and v = Sm.float rng in
      latest.(node) <- v;
      sys.write ~node v
    end
    else
      check_float "mds2 combine"
        (Array.fold_left ( +. ) 0.0 latest)
        (sys.combine ~node:(Sm.int rng 9))
  done

let test_single_node () =
  let tree = Tree.create ~n:1 ~edges:[] in
  let a = Astro.create tree and m = Baselines.Algorithm.mds2 tree in
  Astro.write a ~node:0 3.0;
  m.write ~node:0 3.0;
  check_float "astrolabe singleton" 3.0 (Astro.combine a ~node:0);
  check_float "mds2 singleton" 3.0 (m.combine ~node:0);
  Alcotest.(check int) "no messages" 0 (Astro.message_total a + m.message_total ())

(* MDS-2's closed form on arbitrary trees and read/write mixes: a write
   sends nothing, a combine costs exactly 2(n-1), and every combine
   returns the exact sum of the latest writes. *)
let prop_mds2_closed_form =
  QCheck.Test.make ~count:300
    ~name:"mds2 closed form: 0 per write, 2(n-1) per combine, exact"
    QCheck.(pair (int_range 1 40) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Sm.create seed in
      let tree = Tree.Build.random rng n in
      let sys = Baselines.Algorithm.mds2 tree in
      let latest = Array.make n 0.0 in
      let read_fraction = Sm.float rng in
      let ok = ref true in
      for _ = 1 to 40 do
        let node = Sm.int rng n in
        let before = sys.message_total () in
        if Sm.bernoulli rng read_fraction then begin
          let got = sys.combine ~node in
          let want = Array.fold_left ( +. ) 0.0 latest in
          if Float.abs (got -. want) > 1e-9 then ok := false;
          if sys.message_total () - before <> 2 * (n - 1) then ok := false
        end
        else begin
          let v = Sm.float rng in
          latest.(node) <- v;
          sys.write ~node v;
          if sys.message_total () <> before then ok := false
        end
      done;
      !ok)

let test_driver_consistency_all () =
  let rng = Sm.create 606 in
  let tree = Tree.Build.random rng 8 in
  let sigma =
    Workload.Generate.mixed
      { Workload.Generate.default_spec with n_requests = 300 }
      tree (Sm.create 607)
  in
  List.iter
    (fun (name, make) ->
      let algo = make tree in
      (* Algorithm.run raises on any consistency violation. *)
      let cost = Baselines.Algorithm.run algo sigma in
      Alcotest.(check bool) (name ^ " ran") true (cost >= 0))
    Baselines.Algorithm.all_static_and_adaptive

let test_driver_cost_ordering () =
  (* Read-heavy: astrolabe beats mds-2.  Write-heavy: the reverse.
     RWW stays within a constant of the better one in both regimes. *)
  let tree = Tree.Build.binary 15 in
  let cost maker sigma = Baselines.Algorithm.run (maker tree) sigma in
  let rh = Workload.Generate.read_heavy tree (Sm.create 1) ~n:1500 in
  let wh = Workload.Generate.write_heavy tree (Sm.create 2) ~n:1500 in
  let astro_rh = cost Baselines.Algorithm.astrolabe rh in
  let mds_rh = cost Baselines.Algorithm.mds2 rh in
  let rww_rh = cost Baselines.Algorithm.rww rh in
  Alcotest.(check bool) "read-heavy: astrolabe < mds2" true (astro_rh < mds_rh);
  Alcotest.(check bool) "read-heavy: rww near best" true
    (rww_rh <= 3 * min astro_rh mds_rh);
  let astro_wh = cost Baselines.Algorithm.astrolabe wh in
  let mds_wh = cost Baselines.Algorithm.mds2 wh in
  let rww_wh = cost Baselines.Algorithm.rww wh in
  Alcotest.(check bool) "write-heavy: mds2 < astrolabe" true (mds_wh < astro_wh);
  Alcotest.(check bool) "write-heavy: rww near best" true
    (rww_wh <= 3 * min astro_wh mds_wh)

let test_run_rejects_wrong_combine () =
  (* A combine answering the aggregate plus one: the oracle must name
     the first bad combine, by position in the sequence and node. *)
  let tree = Tree.Build.path 3 in
  let rww = Baselines.Algorithm.rww tree in
  let off_by_one =
    { rww with combine = (fun ~node -> rww.combine ~node +. 1.0) }
  in
  let sigma = Oat.Request.[ write 0 2.0; write 2 3.0; combine 1; combine 0 ] in
  Alcotest.check_raises "first bad combine"
    (Failure "rww: combine #2 at node 1 returned 6., expected 5.")
    (fun () -> ignore (Baselines.Algorithm.run off_by_one sigma))

let test_astrolabe_equals_warm_always_lease () =
  (* After the lease structure is fully warmed, the always-lease policy
     must incur exactly Astrolabe's per-write flood cost. *)
  let tree = Tree.Build.caterpillar ~spine:3 ~legs:2 in
  let n = Tree.n_nodes tree in
  let always = Baselines.Algorithm.of_policy Oat.Ab_policy.always_lease tree in
  (* Warm up: one combine at every node sets every directed lease. *)
  for u = 0 to n - 1 do
    ignore (always.Baselines.Algorithm.combine ~node:u)
  done;
  let writes = List.init 10 (fun i -> Oat.Request.write (i mod n) (float_of_int i)) in
  let astro = Baselines.Algorithm.astrolabe tree in
  Alcotest.(check int) "same flood cost"
    (Baselines.Algorithm.run astro writes)
    (Baselines.Algorithm.run always writes)

let suite =
  [
    Alcotest.test_case "astrolabe costs" `Quick test_astrolabe_costs;
    Alcotest.test_case "astrolabe correctness" `Quick test_astrolabe_correctness;
    Alcotest.test_case "mds2 costs" `Quick test_mds2_costs;
    Alcotest.test_case "mds2 correctness" `Quick test_mds2_correctness;
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "driver consistency" `Quick test_driver_consistency_all;
    Alcotest.test_case "cost ordering by regime" `Quick test_driver_cost_ordering;
    Alcotest.test_case "warm always-lease = astrolabe" `Quick
      test_astrolabe_equals_warm_always_lease;
    QCheck_alcotest.to_alcotest prop_mds2_closed_form;
    Alcotest.test_case "run rejects a wrong combine" `Quick
      test_run_rejects_wrong_combine;
  ]
