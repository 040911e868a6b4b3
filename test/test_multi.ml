(* Tests for the multi-attribute (SDIMS-style) frontend. *)

module Sm = Prng.Splitmix
module Multi = Oat.Multi.Make (Agg.Ops.Sum)
module M = Oat.Mechanism.Make (Agg.Ops.Sum)

let check_float = Alcotest.(check (float 1e-9))

let test_on_demand_creation () =
  let t = Multi.create (Fun.const (Tree.Build.binary 7)) in
  Alcotest.(check (list string)) "empty" [] (Multi.attributes t);
  Multi.write t ~attr:"load" ~node:3 2.0;
  Multi.write t ~attr:"disk" ~node:4 7.0;
  Multi.write t ~attr:"load" ~node:5 1.0;
  Alcotest.(check (list string)) "creation order" [ "load"; "disk" ]
    (Multi.attributes t);
  Alcotest.(check bool) "mem" true (Multi.mem t "load");
  Alcotest.(check bool) "not mem" false (Multi.mem t "net")

let test_attributes_are_independent () =
  let t = Multi.create (Fun.const (Tree.Build.path 4)) in
  Multi.write t ~attr:"a" ~node:0 10.0;
  Multi.write t ~attr:"b" ~node:3 20.0;
  check_float "a aggregate" 10.0 (Multi.combine t ~attr:"a" ~node:2);
  check_float "b aggregate" 20.0 (Multi.combine t ~attr:"b" ~node:1);
  (* Writing to a must not disturb b's aggregate. *)
  Multi.write t ~attr:"a" ~node:1 5.0;
  check_float "b unchanged" 20.0 (Multi.combine t ~attr:"b" ~node:1);
  check_float "a updated" 15.0 (Multi.combine t ~attr:"a" ~node:2)

let test_combine_on_unknown_attribute () =
  let t = Multi.create (Fun.const (Tree.Build.path 3)) in
  match Multi.combine t ~attr:"ghost" ~node:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_declare_duplicate_rejected () =
  let t = Multi.create (Fun.const (Tree.Build.path 3)) in
  Multi.declare t "x";
  match Multi.declare t "x" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

let test_message_accounting () =
  let t = Multi.create (Fun.const (Tree.Build.two_nodes ())) in
  Multi.write t ~attr:"a" ~node:0 1.0;
  (* free *)
  ignore (Multi.combine t ~attr:"a" ~node:1);
  (* 2 messages *)
  Multi.write t ~attr:"b" ~node:0 1.0;
  ignore (Multi.combine t ~attr:"b" ~node:1);
  ignore (Multi.combine t ~attr:"b" ~node:1);
  (* warm: free *)
  Alcotest.(check int) "per attribute a" 2 (Multi.message_total_for t ~attr:"a");
  Alcotest.(check int) "per attribute b" 2 (Multi.message_total_for t ~attr:"b");
  Alcotest.(check int) "total" 4 (Multi.message_total t);
  (* one probe 1->0 and one response 0->1 per attribute *)
  let load = Multi.messages_per_node t ~n:2 in
  Alcotest.(check (array int)) "per-node load" [| 2; 2 |] load;
  Alcotest.(check int) "per-node load sums to the total" (Multi.message_total t)
    (Array.fold_left ( + ) 0 load)

let test_per_attribute_policies () =
  (* A hot attribute on never-lease re-probes every combine; a stable one
     on always-lease answers locally after warm-up. *)
  let t = Multi.create (Fun.const (Tree.Build.path 3)) in
  Multi.declare t ~policy:Oat.Ab_policy.never_lease "hot";
  Multi.declare t ~policy:Oat.Ab_policy.always_lease "stable";
  Multi.write t ~attr:"hot" ~node:2 1.0;
  Multi.write t ~attr:"stable" ~node:2 1.0;
  ignore (Multi.combine t ~attr:"hot" ~node:0);
  ignore (Multi.combine t ~attr:"hot" ~node:0);
  ignore (Multi.combine t ~attr:"stable" ~node:0);
  ignore (Multi.combine t ~attr:"stable" ~node:0);
  Alcotest.(check int) "never re-probes" 8 (Multi.message_total_for t ~attr:"hot");
  Alcotest.(check int) "always probes once" 4
    (Multi.message_total_for t ~attr:"stable")

let test_consistency_across_many_attributes () =
  let rng = Sm.create 404 in
  let tree = Tree.Build.random rng 8 in
  let t = Multi.create (Fun.const tree) in
  let attrs = [| "a"; "b"; "c"; "d" |] in
  let reference = Hashtbl.create 16 in
  for _ = 1 to 300 do
    let attr = Sm.pick rng attrs in
    let node = Sm.int rng 8 in
    if Sm.bool rng then begin
      let v = Sm.float rng in
      Hashtbl.replace reference (attr, node) v;
      Multi.write t ~attr ~node v
    end
    else if Multi.mem t attr then begin
      let got = Multi.combine t ~attr ~node in
      let want =
        Hashtbl.fold
          (fun (a, _) v acc -> if a = attr then acc +. v else acc)
          reference 0.0
      in
      check_float "strict per attribute" want got
    end
  done

let test_instance_escape_hatch () =
  let t = Multi.create (Fun.const (Tree.Build.path 3)) in
  Multi.write t ~attr:"x" ~node:0 3.0;
  ignore (Multi.combine t ~attr:"x" ~node:2);
  let sys = Multi.instance t ~attr:"x" in
  Alcotest.(check bool) "lease visible through instance" true
    (M.granted sys 0 1)

let suite =
  [
    Alcotest.test_case "on-demand creation" `Quick test_on_demand_creation;
    Alcotest.test_case "attribute independence" `Quick
      test_attributes_are_independent;
    Alcotest.test_case "unknown attribute" `Quick test_combine_on_unknown_attribute;
    Alcotest.test_case "duplicate declare" `Quick test_declare_duplicate_rejected;
    Alcotest.test_case "message accounting" `Quick test_message_accounting;
    Alcotest.test_case "per-attribute policies" `Quick test_per_attribute_policies;
    Alcotest.test_case "consistency across attributes" `Quick
      test_consistency_across_many_attributes;
    Alcotest.test_case "instance escape hatch" `Quick test_instance_escape_hatch;
  ]
