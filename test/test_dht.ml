(* Tests for the DHT-tree substrate (Plaxton prefix routing, SDIMS-style
   per-attribute aggregation trees). *)

module Sm = Prng.Splitmix
module P = Dht.Plaxton
module Mu = Oat.Multi.Make (Agg.Ops.Sum)

(* The SDIMS front-end: one aggregation tree per attribute, from [d]. *)
let per_attribute d = Mu.create (P.tree_for_attribute d)

let test_ids_distinct_and_in_range () =
  let rng = Sm.create 1 in
  let d = P.create rng ~n:50 ~bits:10 in
  let seen = Hashtbl.create 64 in
  for u = 0 to 49 do
    let id = P.node_id d u in
    Alcotest.(check bool) "in range" true (id >= 0 && id < 1024);
    Alcotest.(check bool) "distinct" false (Hashtbl.mem seen id);
    Hashtbl.replace seen id ()
  done

let test_create_validation () =
  let rng = Sm.create 2 in
  (match P.create rng ~n:10 ~bits:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n > 2^bits must fail");
  match P.create rng ~n:1 ~bits:40 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bits > 30 must fail"

let test_prefix_match () =
  Alcotest.(check int) "identical" 8 (P.prefix_match ~bits:8 0b10110010 0b10110010);
  Alcotest.(check int) "top bit differs" 0 (P.prefix_match ~bits:8 0b10000000 0b00000000);
  Alcotest.(check int) "3 bits" 3 (P.prefix_match ~bits:8 0b10100000 0b10110000);
  Alcotest.(check int) "last bit differs" 7 (P.prefix_match ~bits:8 0b10110010 0b10110011)

let test_root_is_xor_closest () =
  let rng = Sm.create 3 in
  let d = P.create rng ~n:30 ~bits:12 in
  for key = 0 to 50 do
    let key = key * 71 mod 4096 in
    let root = P.root_for_key d ~key in
    for u = 0 to 29 do
      Alcotest.(check bool) "root minimizes xor distance" true
        (P.node_id d root lxor key <= P.node_id d u lxor key)
    done
  done

let test_trees_are_valid_and_prefix_monotone () =
  let rng = Sm.create 4 in
  let d = P.create rng ~n:40 ~bits:12 in
  for k = 0 to 20 do
    let key = (k * 199) mod 4096 in
    (* Tree.create validates spanning-tree-ness internally. *)
    let tree = P.tree_for_key d ~key in
    Alcotest.(check int) "spans all machines" 40 (Tree.n_nodes tree);
    let root = P.root_for_key d ~key in
    (* Parent chains strictly increase the prefix match, except the last
       hop into the root. *)
    for u = 0 to 39 do
      match P.parent_for_key d ~key u with
      | None -> Alcotest.(check int) "only root has no parent" root u
      | Some p ->
        let lu = P.prefix_match ~bits:12 (P.node_id d u) key in
        let lp = P.prefix_match ~bits:12 (P.node_id d p) key in
        Alcotest.(check bool) "prefix grows (or parent is root)" true
          (lp > lu || p = root)
    done
  done

let test_hash_deterministic () =
  Alcotest.(check int) "same string same hash"
    (P.hash_string ~bits:16 "cpu-load")
    (P.hash_string ~bits:16 "cpu-load");
  Alcotest.(check bool) "different strings differ (here)" true
    (P.hash_string ~bits:16 "cpu-load" <> P.hash_string ~bits:16 "disk-free")

let test_aggregation_over_dht_tree () =
  (* The mechanism is topology-agnostic: strict consistency on a DHT
     tree exactly as on hand-built ones. *)
  let module M = Oat.Mechanism.Make (Agg.Ops.Sum) in
  let rng = Sm.create 5 in
  let d = P.create rng ~n:25 ~bits:10 in
  let tree = P.tree_for_attribute d "cpu-load" in
  let sys = M.create tree ~policy:Oat.Rww.policy in
  let latest = Array.make 25 0.0 in
  for i = 1 to 200 do
    let node = Sm.int rng 25 in
    if Sm.bool rng then begin
      latest.(node) <- float_of_int i;
      M.write_sync sys ~node (float_of_int i)
    end
    else
      Alcotest.(check (float 1e-6)) "strict on DHT tree"
        (Array.fold_left ( +. ) 0.0 latest)
        (M.combine_sync sys ~node)
  done

let test_multi_dht_load_spreading () =
  let d = P.create (Sm.create 6) ~n:32 ~bits:12 in
  let t = per_attribute d in
  let attrs = List.init 48 (fun i -> Printf.sprintf "attr-%d" i) in
  (* Roots of many attributes must not all collapse onto one machine. *)
  let roots =
    List.map (fun a -> P.root_for_key d ~key:(P.key_of_attribute d a)) attrs
  in
  let distinct = List.sort_uniq compare roots in
  Alcotest.(check bool) "roots spread" true (List.length distinct >= 6);
  (* Drive traffic on every attribute and check per-machine load is not
     concentrated on a single machine. *)
  let rng2 = Sm.create 7 in
  List.iter
    (fun attr ->
      for i = 1 to 6 do
        Mu.write t ~attr ~node:(Sm.int rng2 32) (float_of_int i)
      done;
      ignore (Mu.combine t ~attr ~node:(Sm.int rng2 32)))
    attrs;
  let load = Mu.messages_per_node t ~n:32 in
  let total = Array.fold_left ( + ) 0 load in
  Alcotest.(check int) "load accounting consistent" (Mu.message_total t) total;
  (* the per-node loads read the mechanisms' ledgers; the networks count
     the same traffic on their own *)
  let module M = Oat.Mechanism.Make (Agg.Ops.Sum) in
  let wire =
    List.fold_left
      (fun acc attr ->
        acc + Simul.Network.total (M.network (Mu.instance t ~attr)))
      0 attrs
  in
  Alcotest.(check int) "load matches the wire" wire total;
  let max_load = Array.fold_left max 0 load in
  Alcotest.(check bool) "no machine carries most of the load" true
    (max_load * 3 < total)

let test_multi_dht_consistency () =
  let t = per_attribute (P.create (Sm.create 8) ~n:20 ~bits:10) in
  let reference = Hashtbl.create 16 in
  let rng2 = Sm.create 9 in
  let attrs = [| "a"; "b"; "c" |] in
  (* combine raises on an undeclared attribute; a read may come first *)
  Array.iter (Mu.declare t) attrs;
  for i = 1 to 200 do
    let attr = Sm.pick rng2 attrs in
    let node = Sm.int rng2 20 in
    if Sm.bool rng2 then begin
      Hashtbl.replace reference (attr, node) (float_of_int i);
      Mu.write t ~attr ~node (float_of_int i)
    end
    else begin
      let want =
        Hashtbl.fold
          (fun (a, _) v acc -> if a = attr then acc +. v else acc)
          reference 0.0
      in
      Alcotest.(check (float 1e-6)) "strict per DHT attribute" want
        (Mu.combine t ~attr ~node)
    end
  done

let test_different_attributes_different_trees () =
  let module M = Oat.Mechanism.Make (Agg.Ops.Sum) in
  let t = per_attribute (P.create (Sm.create 10) ~n:24 ~bits:12) in
  let trees =
    List.map
      (fun attr ->
        Mu.declare t attr;
        Tree.edges (M.tree (Mu.instance t ~attr)))
      [ "x"; "y"; "z"; "w" ]
  in
  let distinct = List.sort_uniq compare trees in
  Alcotest.(check bool) "at least two distinct topologies" true
    (List.length distinct >= 2)

let suite =
  [
    Alcotest.test_case "ids distinct" `Quick test_ids_distinct_and_in_range;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "prefix match" `Quick test_prefix_match;
    Alcotest.test_case "root is xor-closest" `Quick test_root_is_xor_closest;
    Alcotest.test_case "trees valid, prefix monotone" `Quick
      test_trees_are_valid_and_prefix_monotone;
    Alcotest.test_case "hash deterministic" `Quick test_hash_deterministic;
    Alcotest.test_case "aggregation over DHT tree" `Quick
      test_aggregation_over_dht_tree;
    Alcotest.test_case "load spreading" `Quick test_multi_dht_load_spreading;
    Alcotest.test_case "multi-dht consistency" `Quick test_multi_dht_consistency;
    Alcotest.test_case "distinct trees per attribute" `Quick
      test_different_attributes_different_trees;
  ]

(* Depth bound: prefix match strictly increases along parent chains, so
   any root-to-leaf path has at most bits+1 nodes. *)
let prop_tree_depth_bounded =
  QCheck.Test.make ~name:"DHT tree depth <= bits + 1" ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Sm.create seed in
      let bits = 12 in
      let d = P.create rng ~n ~bits in
      let key = Sm.int rng (1 lsl bits) in
      let tree = P.tree_for_key d ~key in
      let root = P.root_for_key d ~key in
      Tree.eccentricity tree root <= bits + 1)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_tree_depth_bounded ]
