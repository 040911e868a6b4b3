(* Tests for the tree topology substrate: construction validation,
   subtree(u,v), u-parents, paths, and property tests on random trees. *)

module Sm = Prng.Splitmix

let check_invalid name f =
  match f () with
  | exception Tree.Invalid_tree _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_tree" name

let test_create_validation () =
  check_invalid "too few edges" (fun () -> Tree.create ~n:3 ~edges:[ (0, 1) ]);
  check_invalid "too many edges" (fun () ->
      Tree.create ~n:2 ~edges:[ (0, 1); (1, 0) ]);
  check_invalid "self loop" (fun () -> Tree.create ~n:2 ~edges:[ (1, 1) ]);
  check_invalid "out of range" (fun () -> Tree.create ~n:2 ~edges:[ (0, 2) ]);
  check_invalid "disconnected" (fun () ->
      Tree.create ~n:4 ~edges:[ (0, 1); (2, 3); (3, 2) ]);
  check_invalid "cycle" (fun () ->
      Tree.create ~n:4 ~edges:[ (0, 1); (1, 2); (2, 0) ])

let test_singleton () =
  let t = Tree.create ~n:1 ~edges:[] in
  Alcotest.(check int) "n" 1 (Tree.n_nodes t);
  Alcotest.(check (list (pair int int))) "edges" [] (Tree.edges t);
  Alcotest.(check (list int)) "nbrs" [] (Tree.neighbors t 0)

let test_path_structure () =
  let t = Tree.Build.path 5 in
  Alcotest.(check int) "n" 5 (Tree.n_nodes t);
  Alcotest.(check (list int)) "middle nbrs" [ 1; 3 ] (Tree.neighbors t 2);
  Alcotest.(check (list int)) "end nbrs" [ 1 ] (Tree.neighbors t 0);
  Alcotest.(check bool) "leaf" true (Tree.is_leaf t 0);
  Alcotest.(check bool) "internal" false (Tree.is_leaf t 2);
  Alcotest.(check int) "diameter" 4 (Tree.diameter t)

let test_star_structure () =
  let t = Tree.Build.star 6 in
  Alcotest.(check int) "hub degree" 5 (Tree.degree t 0);
  Alcotest.(check int) "leaf degree" 1 (Tree.degree t 3);
  Alcotest.(check int) "diameter" 2 (Tree.diameter t)

let test_kary_structure () =
  let t = Tree.Build.kary ~k:3 13 in
  (* Node 0 is the root with children 1,2,3; node 1 has children 4,5,6. *)
  Alcotest.(check (list int)) "root nbrs" [ 1; 2; 3 ] (Tree.neighbors t 0);
  Alcotest.(check (list int)) "node 1 nbrs" [ 0; 4; 5; 6 ] (Tree.neighbors t 1)

let test_caterpillar () =
  let t = Tree.Build.caterpillar ~spine:3 ~legs:2 in
  Alcotest.(check int) "n" 9 (Tree.n_nodes t);
  Alcotest.(check int) "spine-end degree" 3 (Tree.degree t 0);
  Alcotest.(check int) "spine-middle degree" 4 (Tree.degree t 1)

let test_subtree_path () =
  let t = Tree.Build.path 5 in
  Alcotest.(check (list int)) "subtree(1,2)" [ 0; 1 ] (Tree.subtree t 1 2);
  Alcotest.(check (list int)) "subtree(2,1)" [ 2; 3; 4 ] (Tree.subtree t 2 1);
  Alcotest.(check (list int)) "subtree(0,1)" [ 0 ] (Tree.subtree t 0 1)

let test_subtree_partition () =
  (* For every edge, subtree(u,v) and subtree(v,u) partition the nodes. *)
  let rng = Sm.create 100 in
  for _ = 1 to 20 do
    let t = Tree.Build.random rng (2 + Sm.int rng 30) in
    List.iter
      (fun (u, v) ->
        let a = Tree.subtree t u v and b = Tree.subtree t v u in
        let merged = List.sort compare (a @ b) in
        Alcotest.(check (list int)) "partition" (Tree.nodes t) merged;
        List.iter
          (fun w ->
            Alcotest.(check bool) "in_subtree agrees (a)" true
              (Tree.in_subtree t u v w))
          a;
        List.iter
          (fun w ->
            Alcotest.(check bool) "in_subtree agrees (b)" false
              (Tree.in_subtree t u v w))
          b)
      (Tree.edges t)
  done

let test_parent_towards () =
  let t = Tree.Build.path 5 in
  Alcotest.(check int) "parent of 4 toward 0" 3 (Tree.parent_towards t ~root:0 4);
  Alcotest.(check int) "parent of 0 toward 4" 1 (Tree.parent_towards t ~root:4 0);
  let t2 = Tree.Build.star 5 in
  Alcotest.(check int) "leaf toward leaf passes hub" 0
    (Tree.parent_towards t2 ~root:1 4)

let test_path_endpoints () =
  let t = Tree.Build.kary ~k:2 15 in
  let p = Tree.path t 7 12 in
  Alcotest.(check int) "starts at u" 7 (List.hd p);
  Alcotest.(check int) "ends at v" 12 (List.nth p (List.length p - 1));
  Alcotest.(check int) "self path" 1 (List.length (Tree.path t 3 3))

let test_dist_symmetric () =
  let rng = Sm.create 200 in
  let t = Tree.Build.random rng 25 in
  for _ = 1 to 50 do
    let u = Sm.int rng 25 and v = Sm.int rng 25 in
    Alcotest.(check int) "symmetric" (Tree.dist t u v) (Tree.dist t v u)
  done

let test_ordered_pairs () =
  let t = Tree.Build.path 4 in
  Alcotest.(check int) "count" 6 (List.length (Tree.ordered_pairs t));
  Alcotest.(check bool) "contains both directions" true
    (List.mem (1, 2) (Tree.ordered_pairs t) && List.mem (2, 1) (Tree.ordered_pairs t))

let test_bfs_order () =
  let t = Tree.Build.binary 7 in
  let order = Tree.bfs_order t ~root:0 in
  Alcotest.(check int) "visits all" 7 (List.length order);
  Alcotest.(check int) "root first" 0 (List.hd order)

let test_eccentricity_diameter () =
  let t = Tree.Build.path 7 in
  Alcotest.(check int) "center ecc" 3 (Tree.eccentricity t 3);
  Alcotest.(check int) "end ecc" 6 (Tree.eccentricity t 0);
  Alcotest.(check int) "diameter" 6 (Tree.diameter t)

let test_degree_bound_builder () =
  let rng = Sm.create 17 in
  for _ = 1 to 10 do
    let t = Tree.Build.random_with_degree_bound rng ~max_degree:3 40 in
    List.iter
      (fun u ->
        Alcotest.(check bool) "degree bounded" true (Tree.degree t u <= 3))
      (Tree.nodes t)
  done

(* Property tests. *)

let tree_gen =
  QCheck.Gen.(
    map
      (fun (seed, n) ->
        let rng = Sm.create seed in
        Tree.Build.random rng n)
      (pair (int_bound 1_000_000) (int_range 1 40)))

let tree_arb =
  QCheck.make tree_gen ~print:(fun t -> Format.asprintf "%a" Tree.pp t)

let prop_edge_count =
  QCheck.Test.make ~name:"random tree has n-1 edges" ~count:200 tree_arb
    (fun t -> List.length (Tree.edges t) = Tree.n_nodes t - 1)

let prop_degrees_sum =
  QCheck.Test.make ~name:"degree sum is 2(n-1)" ~count:200 tree_arb (fun t ->
      let sum = List.fold_left (fun acc u -> acc + Tree.degree t u) 0 (Tree.nodes t) in
      sum = 2 * (Tree.n_nodes t - 1))

(* The directed-channel index numbers every ordered pair of neighbours
   once, contiguously per source in ascending destination order, and
   rejects every other pair. *)
let prop_channel_index =
  QCheck.Test.make ~name:"channel index is a bijection onto the ordered pairs"
    ~count:100 tree_arb (fun t ->
      let n = Tree.n_nodes t in
      let ids =
        List.map
          (fun (src, dst) -> Tree.channel t ~src ~dst)
          (Tree.ordered_pairs t)
      in
      Tree.n_channels t = 2 * (n - 1)
      && List.sort compare ids = List.init (Tree.n_channels t) Fun.id
      && List.for_all
           (fun (src, dst) ->
             let c = Tree.channel t ~src ~dst in
             Tree.channel_src t c = src
             && Tree.channel_dst t c = dst
             && c = Tree.channel_base t src + Tree.neighbor_index t src dst)
           (Tree.ordered_pairs t)
      && Tree.channel t ~src:0 ~dst:0 = -1
      && Tree.channel t ~src:n ~dst:0 = -1
      && Tree.channel t ~src:0 ~dst:n = -1
      && List.for_all
           (fun u ->
             List.for_all
               (fun v ->
                 Tree.are_neighbors t u v || Tree.channel t ~src:u ~dst:v = -1)
               (Tree.nodes t))
           (Tree.nodes t))

let prop_subtree_sizes =
  QCheck.Test.make ~name:"subtree sizes sum to n per edge" ~count:100 tree_arb
    (fun t ->
      List.for_all
        (fun (u, v) ->
          Tree.subtree_size t u v + Tree.subtree_size t v u = Tree.n_nodes t)
        (Tree.edges t))

let prop_path_valid =
  QCheck.Test.make ~name:"paths step along edges" ~count:100
    (QCheck.pair tree_arb (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (t, (a, b)) ->
      let n = Tree.n_nodes t in
      let u = a mod n and v = b mod n in
      let p = Tree.path t u v in
      let rec ok = function
        | x :: (y :: _ as rest) -> Tree.are_neighbors t x y && ok rest
        | _ -> true
      in
      ok p)

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "path structure" `Quick test_path_structure;
    Alcotest.test_case "star structure" `Quick test_star_structure;
    Alcotest.test_case "kary structure" `Quick test_kary_structure;
    Alcotest.test_case "caterpillar" `Quick test_caterpillar;
    Alcotest.test_case "subtree on path" `Quick test_subtree_path;
    Alcotest.test_case "subtree partition" `Quick test_subtree_partition;
    Alcotest.test_case "parent towards" `Quick test_parent_towards;
    Alcotest.test_case "path endpoints" `Quick test_path_endpoints;
    Alcotest.test_case "dist symmetric" `Quick test_dist_symmetric;
    Alcotest.test_case "ordered pairs" `Quick test_ordered_pairs;
    Alcotest.test_case "bfs order" `Quick test_bfs_order;
    Alcotest.test_case "eccentricity/diameter" `Quick test_eccentricity_diameter;
    Alcotest.test_case "degree-bounded builder" `Quick test_degree_bound_builder;
    QCheck_alcotest.to_alcotest prop_edge_count;
    QCheck_alcotest.to_alcotest prop_degrees_sum;
    QCheck_alcotest.to_alcotest prop_channel_index;
    QCheck_alcotest.to_alcotest prop_subtree_sizes;
    QCheck_alcotest.to_alcotest prop_path_valid;
  ]
