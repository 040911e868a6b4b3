(* The reliable transport (Simul.Reliable) over a faulty network:
   scripted single-fault unit tests, crash/session semantics, and the
   QCheck property that arbitrary bounded fault plans (drop + duplicate
   + reorder + delay, no crashes) cannot break exactly-once FIFO
   delivery or prevent quiescence.  Payloads are small ints carried in
   pooled frames; every test also audits the pool for leaks. *)

module Sm = Prng.Splitmix
module Net = Simul.Network
module Rel = Simul.Reliable
module Frame = Simul.Frame
module Dev = Simul.Devent

let ok = { Net.drop = false; duplicate = false; reorder_depth = 0 }

(* int payload <-> frame: 8 bytes after the transport header *)
let send rel pool ~src ~dst k =
  let f = Frame.alloc pool in
  Frame.set_kind f (Simul.Kind.index Simul.Kind.Update);
  Frame.set_length f (Frame.header_size + 8);
  Frame.set_int (Frame.buf f) Frame.header_size k;
  Rel.send rel ~src ~dst f

(* A transport stack carrying raw int payloads; [received] accumulates
   deliveries in order. *)
let make ?fault ?(rto = 4.0) tree =
  let dev = Dev.create ~latency:Dev.unit_latency in
  let received = ref [] in
  let pool = Frame.create_pool ~name:"test.rel" () in
  let net = Net.create ?fault ~on_send:(Dev.notify dev) tree in
  let rel =
    Rel.create ~rto ~pool ~timer:dev ~net
      ~deliver:(fun ~src ~dst f ->
        let m = Frame.get_int (Frame.buf f) Frame.header_size in
        Frame.release f;
        received := (src, dst, m) :: !received)
      ()
  in
  (dev, net, rel, pool, fun () -> List.rev !received)

let drain dev net rel = Dev.drain dev net ~handler:(Rel.handle rel)

let quiet net rel pool =
  Rel.check_invariants rel;
  Frame.check_pool pool;
  Alcotest.(check bool) "transport quiescent" true (Rel.is_quiescent rel);
  Alcotest.(check bool) "network quiescent" true (Net.is_quiescent net);
  Alcotest.(check int) "no leaked frames" 0 (Frame.live pool)

let test_fifo_fault_free () =
  let tree = Tree.Build.path 3 in
  let dev, net, rel, pool, received = make tree in
  for k = 0 to 9 do
    send rel pool ~src:0 ~dst:1 k
  done;
  send rel pool ~src:2 ~dst:1 100;
  ignore (drain dev net rel);
  let data = List.filter (fun (s, _, _) -> s = 0) (received ()) in
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map (fun (_, _, m) -> m) data);
  Alcotest.(check int) "cross traffic" 11 (List.length (received ()));
  Alcotest.(check int) "no retransmits" 0 (Rel.retransmits rel);
  quiet net rel pool

let test_dropped_data_is_retransmitted () =
  let tree = Tree.Build.two_nodes () in
  (* first transmission on every channel is lost *)
  let fault ~src:_ ~dst:_ ~attempt =
    if attempt = 0 then { ok with Net.drop = true } else ok
  in
  let dev, net, rel, pool, received = make ~fault tree in
  send rel pool ~src:0 ~dst:1 7;
  ignore (drain dev net rel);
  Alcotest.(check (list (triple int int int))) "delivered once" [ (0, 1, 7) ]
    (received ());
  Alcotest.(check bool) "retransmitted" true (Rel.retransmits rel > 0);
  (* delivery waited for the retransmission timeout *)
  Alcotest.(check bool) "paid the rto" true (Dev.now dev >= 4.0);
  quiet net rel pool

let test_duplicate_deduplicated () =
  let tree = Tree.Build.two_nodes () in
  let fault ~src ~dst:_ ~attempt:_ =
    if src = 0 then { ok with Net.duplicate = true } else ok
  in
  let dev, net, rel, pool, received = make ~fault tree in
  send rel pool ~src:0 ~dst:1 1;
  send rel pool ~src:0 ~dst:1 2;
  ignore (drain dev net rel);
  Alcotest.(check (list int)) "each payload once" [ 1; 2 ]
    (List.map (fun (_, _, m) -> m) (received ()));
  Alcotest.(check bool) "dup copies dropped" true (Rel.dedup_drops rel > 0);
  quiet net rel pool

let test_reordered_channel_stays_fifo () =
  let tree = Tree.Build.two_nodes () in
  (* every data send jumps the queue as far as it can *)
  let fault ~src ~dst:_ ~attempt:_ =
    if src = 0 then { ok with Net.reorder_depth = 10 } else ok
  in
  let dev, net, rel, pool, received = make ~fault tree in
  for k = 0 to 5 do
    send rel pool ~src:0 ~dst:1 k
  done;
  ignore (drain dev net rel);
  Alcotest.(check (list int)) "reassembled in order" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun (_, _, m) -> m) (received ()));
  quiet net rel pool

let test_crash_voids_in_flight () =
  let tree = Tree.Build.two_nodes () in
  let dev, net, rel, pool, received = make tree in
  send rel pool ~src:0 ~dst:1 1;
  (* frame and its session die with the receiver *)
  Rel.crash rel ~node:1;
  Alcotest.(check bool) "receiver down" false (Rel.is_up rel 1);
  Alcotest.(check int) "sender window torn down" 0 (Rel.unacked rel);
  Rel.restart rel ~node:1;
  ignore (drain dev net rel);
  Alcotest.(check (list (triple int int int)))
    "pre-crash payload lost, not resurrected" [] (received ());
  Alcotest.(check bool) "loss is accounted" true
    (Rel.teardown_drops rel + Rel.stale_drops rel > 0);
  (* the re-established session starts from sequence 0 *)
  send rel pool ~src:0 ~dst:1 42;
  ignore (drain dev net rel);
  Alcotest.(check (list (triple int int int))) "fresh session delivers"
    [ (0, 1, 42) ]
    (received ());
  Alcotest.(check int) "one incarnation" 1 (Rel.incarnation rel 1);
  quiet net rel pool

let test_send_from_down_node_rejected () =
  let tree = Tree.Build.two_nodes () in
  let _, _, rel, pool, _ = make tree in
  Rel.crash rel ~node:0;
  let f = Frame.alloc pool in
  Alcotest.check_raises "send from down node"
    (Invalid_argument "Reliable.send: source node is down") (fun () ->
      Rel.send rel ~src:0 ~dst:1 f);
  Frame.release f;
  Alcotest.check_raises "double crash"
    (Invalid_argument "Reliable.crash: node already down") (fun () ->
      Rel.crash rel ~node:0);
  Alcotest.check_raises "restart of up node"
    (Invalid_argument "Reliable.restart: node is up") (fun () ->
      Rel.restart rel ~node:1)

(* The tentpole property: under any bounded fault plan without crashes,
   the transport delivers every payload exactly once, in FIFO order per
   directed channel, the run reaches quiescence, and every frame is back
   in the pool.  (Crashes are excluded by design: session teardown
   deliberately loses the unacked window — recovery of those payloads is
   the mechanism's job, tested in test_recovery.ml.) *)
let prop_exactly_once_fifo =
  QCheck.Test.make ~name:"exactly-once FIFO under arbitrary bounded fault plans"
    ~count:60
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let g = Sm.create (seed + 17) in
      let tree =
        match Sm.int g 3 with
        | 0 -> Tree.Build.path (2 + Sm.int g 6)
        | 1 -> Tree.Build.star (3 + Sm.int g 5)
        | _ -> Tree.Build.binary (3 + Sm.int g 9)
      in
      let spec =
        {
          Fault.Plan.none with
          drop = 0.4 *. Sm.float g;
          duplicate = 0.3 *. Sm.float g;
          reorder = 0.3 *. Sm.float g;
          reorder_depth = 1 + Sm.int g 4;
          delay = 0.3 *. Sm.float g;
          delay_max = 1 + Sm.int g 5;
        }
      in
      let plan = Fault.Plan.create ~seed spec in
      let dev =
        Dev.create ~latency:(Fault.Plan.latency plan ~base:Dev.unit_latency)
      in
      let received = ref [] in
      let pool = Frame.create_pool ~name:"test.rel.prop" () in
      let net =
        Net.create ~fault:(Fault.Plan.hook plan) ~on_send:(Dev.notify dev) tree
      in
      let rel =
        Rel.create ~pool ~timer:dev ~net
          ~deliver:(fun ~src ~dst f ->
            let m = Frame.get_int (Frame.buf f) Frame.header_size in
            Frame.release f;
            received := (src, dst, m) :: !received)
          ()
      in
      let n_msgs = 10 + Sm.int g 40 in
      let sent = ref [] in
      for k = 0 to n_msgs - 1 do
        let u = Sm.int g (Tree.n_nodes tree) in
        let nbrs = Tree.neighbors_arr tree u in
        let v = nbrs.(Sm.int g (Array.length nbrs)) in
        let at = Sm.float g *. 30.0 in
        Dev.at dev at (fun () ->
            sent := (u, v, k) :: !sent;
            send rel pool ~src:u ~dst:v k)
      done;
      ignore (Dev.drain dev net ~handler:(Rel.handle rel));
      Rel.check_invariants rel;
      Frame.check_pool pool;
      let sent = List.rev !sent and received = List.rev !received in
      let on_chan u v l =
        List.filter_map
          (fun (a, b, k) -> if a = u && b = v then Some k else None)
          l
      in
      let chans =
        List.sort_uniq compare (List.map (fun (u, v, _) -> (u, v)) sent)
      in
      List.length received = List.length sent
      && Rel.is_quiescent rel
      && Net.is_quiescent net
      && Frame.live pool = 0
      && List.for_all
           (fun (u, v) -> on_chan u v sent = on_chan u v received)
           chans)

let suite =
  [
    Alcotest.test_case "fault-free FIFO" `Quick test_fifo_fault_free;
    Alcotest.test_case "dropped data retransmitted" `Quick
      test_dropped_data_is_retransmitted;
    Alcotest.test_case "duplicates deduplicated" `Quick
      test_duplicate_deduplicated;
    Alcotest.test_case "reordering hidden" `Quick
      test_reordered_channel_stays_fifo;
    Alcotest.test_case "crash voids in-flight frames" `Quick
      test_crash_voids_in_flight;
    Alcotest.test_case "session guards" `Quick test_send_from_down_node_rejected;
    QCheck_alcotest.to_alcotest prop_exactly_once_fifo;
  ]
