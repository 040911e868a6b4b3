(* Tests for the virtual-time scheduler and the latency harness. *)

module Sm = Prng.Splitmix
module M = Oat.Mechanism.Make (Agg.Ops.Sum)
module D = Simul.Devent

(* The clock tests send empty frames through a network whose sends
   notify the clock, as [Fault.Runner] and [oat-cli simulate] do. *)
let pool = Simul.Frame.create_pool ~name:"test_latency" ()
let timed_net clock tree = Simul.Network.create ~on_send:(D.notify clock) tree
let send net ~src ~dst = Simul.Network.send net ~src ~dst (Simul.Frame.alloc pool)

let test_clock_orders_by_time () =
  let tree = Tree.Build.path 4 in
  let lat ~src ~dst =
    ignore dst;
    (* edge leaving node 0 is slow *)
    if src = 0 then 5.0 else 1.0
  in
  let clock = D.create ~latency:lat in
  let net = timed_net clock tree in
  let order = ref [] in
  send net ~src:0 ~dst:1;
  (* t=5 *)
  send net ~src:2 ~dst:3;
  (* t=1 *)
  send net ~src:1 ~dst:2;
  (* t=1, seq later than the 2->3 one *)
  let n =
    D.drain clock net ~handler:(fun ~src ~dst f ->
        Simul.Frame.release f;
        order := (src, dst) :: !order)
  in
  Alcotest.(check int) "3 deliveries" 3 n;
  Alcotest.(check (list (pair int int)))
    "timestamp order, ties by send order"
    [ (2, 3); (1, 2); (0, 1) ]
    (List.rev !order);
  Alcotest.(check (float 1e-9)) "clock at 5" 5.0 (D.now clock)

let test_clock_fifo_under_varying_latency () =
  (* Artificial latency source that shrinks over time could reorder a
     FIFO edge; the scheduler must clamp to preserve order. *)
  let tree = Tree.Build.two_nodes () in
  let calls = ref 0 in
  let lat ~src:_ ~dst:_ =
    incr calls;
    if !calls = 1 then 10.0 else 1.0
  in
  let clock = D.create ~latency:lat in
  let net = timed_net clock tree in
  let order = ref [] in
  send net ~src:0 ~dst:1;
  (* scheduled t=10 *)
  send net ~src:0 ~dst:1;
  (* would be t=1, clamped to t=10 *)
  ignore
    (D.drain clock net ~handler:(fun ~src:_ ~dst:_ f ->
         Simul.Frame.release f;
         order := List.length !order :: !order));
  Alcotest.(check int) "both delivered" 2 (List.length !order)

let test_clock_cascade_advances_time () =
  (* Deliveries that trigger further sends accumulate time. *)
  let tree = Tree.Build.path 5 in
  let clock = D.create ~latency:D.unit_latency in
  let net = timed_net clock tree in
  let deliver_hops = ref 0 in
  let handler ~src:_ ~dst f =
    incr deliver_hops;
    if dst < 4 then Simul.Network.send net ~src:dst ~dst:(dst + 1) f
    else Simul.Frame.release f
  in
  send net ~src:0 ~dst:1;
  ignore (D.drain clock net ~handler);
  Alcotest.(check int) "4 hops" 4 !deliver_hops;
  Alcotest.(check (float 1e-9)) "time = path length" 4.0 (D.now clock)

let test_clock_advance_to () =
  let clock = D.create ~latency:D.unit_latency in
  D.advance_to clock 3.0;
  Alcotest.(check (float 1e-9)) "moved" 3.0 (D.now clock);
  D.advance_to clock 1.0;
  Alcotest.(check (float 1e-9)) "never backwards" 3.0 (D.now clock)

let test_clock_rejects_nonpositive_latency () =
  let clock = D.create ~latency:(fun ~src:_ ~dst:_ -> 0.0) in
  match D.notify clock ~src:0 ~dst:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

(* ---- latency harness ---- *)

let test_warm_combine_latency_zero () =
  let tree = Tree.Build.path 4 in
  let sigma =
    [
      Oat.Request.write 3 5.0;
      Oat.Request.combine 0;
      (* cold *)
      Oat.Request.combine 0;
      (* warm: local *)
    ]
  in
  let r = Analysis.Latency.run tree ~policy:Oat.Rww.policy sigma in
  match r.Analysis.Latency.combine_latencies with
  | [ cold; warm ] ->
    (* cold: probes to depth 3 and back *)
    Alcotest.(check (float 1e-9)) "cold round trip" 6.0 cold;
    Alcotest.(check (float 1e-9)) "warm is instant" 0.0 warm
  | _ -> Alcotest.fail "expected two combines"

let test_never_lease_pays_round_trip_every_time () =
  let tree = Tree.Build.path 4 in
  let sigma = [ Oat.Request.combine 0; Oat.Request.combine 0 ] in
  let r = Analysis.Latency.run tree ~policy:Oat.Ab_policy.never_lease sigma in
  List.iter
    (fun l -> Alcotest.(check (float 1e-9)) "full round trip" 6.0 l)
    r.Analysis.Latency.combine_latencies

let test_latency_messages_match_plain_run () =
  (* The virtual clock must not change WHAT happens, only when: message
     totals agree with the ordinary sequential runner. *)
  let rng = Sm.create 77 in
  for _ = 1 to 10 do
    let tree = Tree.Build.random rng (2 + Sm.int rng 8) in
    let n = Tree.n_nodes tree in
    let sigma =
      List.init 80 (fun i ->
          if Sm.bool rng then Oat.Request.write (Sm.int rng n) (float_of_int i)
          else Oat.Request.combine (Sm.int rng n))
    in
    let r = Analysis.Latency.run tree ~policy:Oat.Rww.policy sigma in
    let sys = M.create tree ~policy:Oat.Rww.policy in
    ignore (M.run_sequential sys sigma);
    Alcotest.(check int) "same messages" (M.message_total sys)
      r.Analysis.Latency.messages
  done

let test_latency_summary () =
  let tree = Tree.Build.star 5 in
  let sigma =
    [ Oat.Request.write 1 1.0; Oat.Request.combine 2; Oat.Request.combine 2 ]
  in
  let r = Analysis.Latency.run tree ~policy:Oat.Rww.policy sigma in
  let s = Analysis.Latency.summary r in
  Alcotest.(check int) "two combines" 2 s.Analysis.Stats.count;
  Alcotest.(check bool) "makespan positive" true
    (r.Analysis.Latency.virtual_makespan > 0.0)

let suite =
  [
    Alcotest.test_case "clock orders by time" `Quick test_clock_orders_by_time;
    Alcotest.test_case "clock fifo under varying latency" `Quick
      test_clock_fifo_under_varying_latency;
    Alcotest.test_case "cascade advances time" `Quick
      test_clock_cascade_advances_time;
    Alcotest.test_case "advance_to" `Quick test_clock_advance_to;
    Alcotest.test_case "nonpositive latency rejected" `Quick
      test_clock_rejects_nonpositive_latency;
    Alcotest.test_case "warm combine latency 0" `Quick
      test_warm_combine_latency_zero;
    Alcotest.test_case "never-lease round trips" `Quick
      test_never_lease_pays_round_trip_every_time;
    Alcotest.test_case "clock preserves message counts" `Quick
      test_latency_messages_match_plain_run;
    Alcotest.test_case "latency summary" `Quick test_latency_summary;
  ]
