(* Tests for statistics, table rendering, and ratio measurement. *)

module S = Analysis.Stats

let test_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (S.mean []);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (S.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev constant" 0.0 (S.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (2.0 /. 3.0))
    (S.stddev [ 1.0; 2.0; 3.0 ])

let test_percentiles () =
  let xs = [ 9.0; 1.0; 5.0; 3.0; 7.0 ] in
  Alcotest.(check (float 1e-9)) "median" 5.0 (S.median xs);
  Alcotest.(check (float 1e-9)) "p100 = max" 9.0 (S.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p1 ~ min" 1.0 (S.percentile xs 1.0);
  Alcotest.(check (float 1e-9)) "min" 1.0 (S.minimum xs);
  Alcotest.(check (float 1e-9)) "max" 9.0 (S.maximum xs)

let test_summary () =
  let s = S.summarize [ 2.0; 4.0; 6.0; 8.0 ] in
  Alcotest.(check int) "count" 4 s.S.count;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.S.mean;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.S.min;
  Alcotest.(check (float 1e-9)) "max" 8.0 s.S.max

let test_table_rendering () =
  let t =
    Analysis.Table.create
      ~columns:[ ("name", Analysis.Table.Left); ("value", Analysis.Table.Right) ]
  in
  Analysis.Table.add_row t [ "alpha"; "1" ];
  Analysis.Table.add_row t [ "b"; "22" ];
  let out = Analysis.Table.render t in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  Alcotest.(check string) "header" "name   value" (List.nth lines 0);
  Alcotest.(check string) "row 1 alignment" "alpha      1" (List.nth lines 2);
  Alcotest.(check string) "row 2 alignment" "b         22" (List.nth lines 3)

let test_table_arity_check () =
  let t = Analysis.Table.create ~columns:[ ("a", Analysis.Table.Left) ] in
  match Analysis.Table.add_row t [ "x"; "y" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected arity failure"

let test_formatting_helpers () =
  Alcotest.(check string) "fint" "42" (Analysis.Table.fint 42);
  Alcotest.(check string) "ffloat" "3.14" (Analysis.Table.ffloat 3.14159);
  Alcotest.(check string) "fratio" "2.500" (Analysis.Table.fratio 2.5)

let test_ratio_measure () =
  (* On the RWW worst-case pattern the measured ratio must be <= 5/2 and
     approach it as rounds grow. *)
  let sigma = Workload.Generate.rww_worst_case ~rounds:50 in
  let run =
    Analysis.Ratio.measure (Tree.Build.two_nodes ()) ~policy:Oat.Rww.policy sigma
  in
  (* RWW pays 5 per round; OPT pays 2 per round (combine with no lease,
     free writes). *)
  Alcotest.(check int) "online cost" (5 * 50) run.Analysis.Ratio.online_cost;
  Alcotest.(check int) "opt cost" (2 * 50) run.Analysis.Ratio.opt_lease_cost;
  Alcotest.(check (float 1e-9)) "ratio 5/2" 2.5 (Analysis.Ratio.vs_opt_lease run);
  (* Theorem 2 up to the boundary epoch: 5 extra messages per ordered
     pair for the final (uncounted) epoch. *)
  Alcotest.(check bool) "within Theorem 2 bound" true
    (run.Analysis.Ratio.online_cost
    <= (5 * run.Analysis.Ratio.nice_cost) + (5 * 2))

let test_ratio_counts_ops () =
  let sigma =
    [ Oat.Request.write 0 1.0; Oat.Request.combine 1; Oat.Request.combine 0 ]
  in
  let run =
    Analysis.Ratio.measure (Tree.Build.two_nodes ()) ~policy:Oat.Rww.policy sigma
  in
  Alcotest.(check int) "requests" 3 run.Analysis.Ratio.n_requests;
  Alcotest.(check int) "combines" 2 run.Analysis.Ratio.n_combines;
  Alcotest.(check int) "writes" 1 run.Analysis.Ratio.n_writes


(* ---- DOT rendering ---- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_dot_tree () =
  let out = Analysis.Dot.tree (Tree.Build.path 3) in
  Alcotest.(check bool) "graph header" true (contains out "graph");
  Alcotest.(check bool) "edge 0-1" true (contains out "0 -- 1");
  Alcotest.(check bool) "edge 1-2" true (contains out "1 -- 2")

let test_dot_lease_graph () =
  let module M = Oat.Mechanism.Make (Agg.Ops.Sum) in
  let tree = Tree.Build.path 3 in
  let sys = M.create tree ~policy:Oat.Rww.policy in
  ignore (M.combine_sync sys ~node:0);
  let out =
    Analysis.Dot.lease_graph tree ~granted:(fun u v -> M.granted sys u v)
      ~labels:(fun u -> Printf.sprintf "n%d" u)
  in
  Alcotest.(check bool) "digraph" true (contains out "digraph");
  Alcotest.(check bool) "lease 1->0 bold" true
    (contains out "1 -> 0 [style=bold");
  Alcotest.(check bool) "lease 2->1 bold" true
    (contains out "2 -> 1 [style=bold");
  Alcotest.(check bool) "no lease 0->1" false
    (contains out "0 -> 1 [style=bold");
  Alcotest.(check bool) "labels" true (contains out "n2")


(* ---- per-request cost profiles ---- *)

let test_profile_two_node () =
  let tree = Tree.Build.two_nodes () in
  let sigma =
    [
      Oat.Request.combine 1;
      (* cold: 2 *)
      Oat.Request.write 0 1.0;
      (* update: 1 *)
      Oat.Request.write 0 2.0;
      (* update + release: 2 *)
      Oat.Request.write 0 3.0;
      (* no lease: 0 *)
    ]
  in
  let p = Analysis.Profile.run tree ~policy:Oat.Rww.policy sigma in
  Alcotest.(check (list int)) "combine costs" [ 2 ] p.Analysis.Profile.combine_costs;
  Alcotest.(check (list int)) "write costs" [ 1; 2; 0 ] p.Analysis.Profile.write_costs

let test_profile_totals_match () =
  let rng = Prng.Splitmix.create 222 in
  let tree = Tree.Build.binary 7 in
  let sigma =
    Workload.Generate.mixed
      { Workload.Generate.default_spec with n_requests = 200 }
      tree rng
  in
  let p = Analysis.Profile.run tree ~policy:Oat.Rww.policy sigma in
  let total =
    List.fold_left ( + ) 0 p.Analysis.Profile.combine_costs
    + List.fold_left ( + ) 0 p.Analysis.Profile.write_costs
  in
  let run = Analysis.Ratio.measure tree ~policy:Oat.Rww.policy sigma in
  Alcotest.(check int) "profile sums to total" run.Analysis.Ratio.online_cost total;
  (* Both read Algorithm.costs; the mechanism's ledger counts apart. *)
  let module M = Oat.Mechanism.Make (Agg.Ops.Sum) in
  let sys = M.create tree ~policy:Oat.Rww.policy in
  ignore (M.run_sequential sys sigma);
  Alcotest.(check int) "profile sums to the ledger" (M.message_total sys) total

let test_histogram () =
  let h = Analysis.Profile.histogram [ 2; 0; 2; 1; 2 ] in
  Alcotest.(check (list (pair int int))) "histogram" [ (0, 1); (1, 1); (2, 3) ] h

let suite =
  [
    Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "summary" `Quick test_summary;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "table arity" `Quick test_table_arity_check;
    Alcotest.test_case "format helpers" `Quick test_formatting_helpers;
    Alcotest.test_case "ratio on worst case" `Quick test_ratio_measure;
    Alcotest.test_case "ratio op counts" `Quick test_ratio_counts_ops;
    Alcotest.test_case "dot tree" `Quick test_dot_tree;
    Alcotest.test_case "dot lease graph" `Quick test_dot_lease_graph;
    Alcotest.test_case "profile two-node" `Quick test_profile_two_node;
    Alcotest.test_case "profile totals match" `Quick test_profile_totals_match;
    Alcotest.test_case "histogram" `Quick test_histogram;
  ]
