(* Inspector: the extended API in one place.

   Runs a small multi-attribute deployment, then uses every
   introspection facility the library offers: the gather request of the
   paper's Section 5 (which write does the aggregate reflect, per
   node?), per-request cost profiles, and a Graphviz dump of the lease
   graph (pipe into `dot -Tsvg` to render).

   Run with: dune exec examples/inspector.exe *)

module Sm = Prng.Splitmix
module Multi = Oat.Multi.Make (Agg.Ops.Sum)
module M = Oat.Mechanism.Make (Agg.Ops.Sum)

let () =
  let tree = Tree.Build.caterpillar ~spine:4 ~legs:2 in
  print_endline "Inspector: multi-attribute aggregation + introspection";
  print_endline "======================================================";
  Printf.printf "topology: caterpillar, n=%d, diameter=%d\n\n"
    (Tree.n_nodes tree) (Tree.diameter tree);

  (* --- multi-attribute frontend: per-attribute policies --- *)
  let cluster = Multi.create (Fun.const tree) in
  Multi.declare cluster "requests";
  Multi.declare cluster ~policy:Oat.Ab_policy.never_lease "debug-counter";
  let rng = Sm.create 7 in
  for i = 1 to 60 do
    let node = Sm.int rng (Tree.n_nodes tree) in
    Multi.write cluster ~attr:"requests" ~node (float_of_int i);
    if i mod 10 = 0 then begin
      Multi.write cluster ~attr:"debug-counter" ~node 1.0;
      ignore (Multi.combine cluster ~attr:"requests" ~node:0)
    end
  done;
  Printf.printf "attribute message costs: requests=%d debug-counter=%d\n"
    (Multi.message_total_for cluster ~attr:"requests")
    (Multi.message_total_for cluster ~attr:"debug-counter");

  (* --- gather: which writes does the aggregate reflect? --- *)
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  M.write_sync sys ~node:2 10.0;
  M.write_sync sys ~node:5 4.0;
  M.write_sync sys ~node:2 12.0;
  let value, recent = M.gather_sync sys ~node:7 in
  Printf.printf "\ngather at node 7: aggregate %g, built from:\n" value;
  List.iter
    (fun (node, index) ->
      if index >= 0 then
        Printf.printf "  node %d's write #%d\n" node index)
    recent;

  (* --- per-request cost profile --- *)
  let sigma =
    Workload.Generate.mixed
      { Workload.Generate.default_spec with n_requests = 500 }
      tree (Sm.create 11)
  in
  let prof = Analysis.Profile.run tree ~policy:Oat.Rww.policy sigma in
  let cs = Analysis.Profile.combine_summary prof in
  let ws = Analysis.Profile.write_summary prof in
  Printf.printf "\nper-request costs over %d mixed requests:\n" 500;
  Format.printf "  combines: %a@." Analysis.Stats.pp_summary cs;
  Format.printf "  writes:   %a@." Analysis.Stats.pp_summary ws;
  print_endline "  combine-cost histogram (cost: count):";
  List.iter
    (fun (cost, count) -> Printf.printf "    %2d: %d\n" cost count)
    (Analysis.Profile.histogram prof.Analysis.Profile.combine_costs);

  (* --- lease graph as Graphviz --- *)
  print_endline "\nlease graph after the profile run (Graphviz DOT):";
  print_string
    (Analysis.Dot.lease_graph tree
       ~granted:(fun u v -> M.granted sys u v)
       ~labels:(fun u -> Printf.sprintf "n%d" u))
