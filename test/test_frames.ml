(* The flat-frame data plane: frame pool reference counting, every
   message kind through the real senders and handler, and the
   steady-state delivery path running with zero minor-heap
   allocation. *)

module Frame = Simul.Frame
module Net = Simul.Network
module M = Oat.Mechanism.Make (Agg.Ops.Union)
module Mc = Oat.Mechanism.Make (Agg.Ops.Count)

(* {1 Frame pool} *)

let test_pool_recycles () =
  let pool = Frame.create_pool ~name:"t" () in
  let f = Frame.alloc pool in
  Alcotest.(check int) "rc 1" 1 (Frame.rc f);
  Alcotest.(check int) "live 1" 1 (Frame.live pool);
  Frame.set_length f 4096;
  Frame.release f;
  Alcotest.(check int) "live 0" 0 (Frame.live pool);
  let g = Frame.alloc pool in
  Alcotest.(check int) "recycled, not rebuilt" 1 (Frame.created pool);
  Alcotest.(check int) "recycled frame reset" Frame.header_size (Frame.length g);
  (* a recycled frame keeps its grown capacity: growing back to 4096
     must not reallocate *)
  let buf_before = Frame.buf g in
  Frame.set_length g 4096;
  Alcotest.(check bool) "capacity survived recycling" true
    (buf_before == Frame.buf g);
  Frame.release g;
  Frame.check_pool pool

let test_pool_refcounts () =
  let pool = Frame.create_pool () in
  let f = Frame.alloc pool in
  Frame.retain f;
  Frame.release f;
  Alcotest.(check int) "still live" 1 (Frame.live pool);
  Frame.release f;
  Alcotest.(check int) "freed" 0 (Frame.live pool);
  Alcotest.(check bool) "double release rejected" true
    (match Frame.release f with
    | () -> false
    | exception Frame.Frame_error _ -> true);
  Alcotest.(check bool) "retain of freed frame rejected" true
    (match Frame.retain f with
    | () -> false
    | exception Frame.Frame_error _ -> true);
  Alcotest.(check int) "hwm" 1 (Frame.hwm pool);
  Frame.check_pool pool

(* {1 The codec the system runs}

   The senders are the only encoder and [handler] the only decoder, so
   the codec is checked on what the receivers decoded.  Every kind goes
   through them with every variable section non-empty: Union values of
   8-24 bytes in every x field, a cut in 1's response while 3 and 4 are
   down, ghost wlogs in responses and updates, Hellos from the
   restarts, and ids in RWW's releases. *)

let test_real_frames_carry_every_section () =
  let module U = Agg.Ops.Union in
  let n = 7 in
  let sys = M.create ~ghost:true (Tree.Build.binary n) ~policy:Oat.Rww.policy in
  (* the argument of every write, by (origin, index) *)
  let args = Hashtbl.create 16 in
  let write u arg =
    Hashtbl.replace args (u, M.completed_requests sys u) arg;
    M.write_sync sys ~node:u arg
  in
  let set u = U.of_list (List.init (1 + (u mod 3)) (fun k -> (100 * u) + k)) in
  let union_of = List.fold_left (fun acc u -> U.combine acc (set u)) U.identity in
  for u = 0 to n - 1 do
    write u (set u)
  done;
  (* 3 and 4 hang below 1 *)
  M.crash sys ~node:3;
  M.crash sys ~node:4;
  let r = ref None in
  M.combine_tagged sys ~node:0 (fun v ~cut -> r := Some (v, cut));
  ignore (M.run_to_quiescence sys);
  Alcotest.(check (option (pair (list int) (list int))))
    "partial union, cut decoded from 1's response"
    (Some (union_of [ 0; 1; 2; 5; 6 ], [ 3; 4 ]))
    !r;
  M.restart sys ~node:3;
  M.restart sys ~node:4;
  ignore (M.run_to_quiescence sys);
  Alcotest.(check (list int)) "exact union after the Hellos"
    (union_of [ 0; 1; 2; 3; 4; 5; 6 ])
    (M.combine_sync sys ~node:0);
  (* two writes under 2's lease: updates, then RWW's release *)
  write 5 (U.of_list [ 503; 504 ]);
  write 5 (U.of_list [ 505; 506; 507 ]);
  let value, recent = M.gather_sync sys ~node:0 in
  Alcotest.(check (list int)) "gather sees both writes"
    (U.combine (union_of [ 0; 1; 2; 3; 4; 6 ]) [ 505; 506; 507 ])
    value;
  Alcotest.(check int) "5's recent write index" 2 (List.assoc 5 recent);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Simul.Kind.to_string k ^ " frames sent")
        true
        (M.messages_of_kind sys k > 0))
    Simul.Kind.[ Probe; Response; Update; Release; Hello ];
  for u = 0 to n - 1 do
    List.iter
      (function
        | Oat.Ghost.Write w ->
          Alcotest.(check (option (list int)))
            (Printf.sprintf "node %d's copy of write (%d,%d)" u w.wnode w.windex)
            (Hashtbl.find_opt args (w.wnode, w.windex))
            (Some w.warg)
        | Oat.Ghost.Combine _ -> ())
      (M.log sys u)
  done;
  Alcotest.(check int) "causal violations" 0
    (List.length
       (Consistency.Causal.check (module U) ~n_nodes:n
          ~logs:(Array.init n (M.log sys))));
  Alcotest.(check int) "no frame live" 0 (Frame.live (M.frame_pool sys));
  M.check_invariants sys

(* {1 Zero minor allocation on the steady-state delivery path}

   The acceptance gate of this PR, asserted mechanically: a leased
   write cascade over a 64-node path — encode at the writer, 63 frame
   hops, decode + state update at every node — allocates nothing on
   the minor heap.  Telemetry off, faults off, ghost off; Count keeps
   the aggregate values unboxed.  The warmup lets every growable
   (frame capacities, sent logs, uaw windows) reach steady size. *)
let test_zero_minor_alloc_steady_state () =
  let n = 64 in
  let tree = Tree.Build.path n in
  let sys =
    Mc.create tree ~policy:(Oat.Policy.noop ~name:"lease-all" ~set_lease:true)
  in
  let net = Mc.network sys in
  let h = Mc.handler sys in
  (* set leases along the whole path, then cascade writes root-ward *)
  ignore (Mc.combine_sync sys ~node:0);
  let round () =
    Mc.write sys ~node:(n - 1) 1;
    while Net.deliver_any net ~handler:h do () done
  in
  for _ = 1 to 2000 do round () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do round () done;
  let w1 = Gc.minor_words () in
  let delta = int_of_float (w1 -. w0) in
  (* slack: the two Gc.minor_words calls box their float results; any
     per-round allocation would show up as >= 1000 words *)
  Alcotest.(check bool)
    (Printf.sprintf "minor words per 1000 rounds = %d (want <= 16)" delta)
    true (delta <= 16);
  Alcotest.(check int) "no frames in flight" 0 (Frame.live (Mc.frame_pool sys));
  Mc.check_invariants sys

let suite =
  [
    Alcotest.test_case "pool recycles frames" `Quick test_pool_recycles;
    Alcotest.test_case "pool reference counts" `Quick test_pool_refcounts;
    Alcotest.test_case "real frames carry every section" `Quick
      test_real_frames_carry_every_section;
    Alcotest.test_case "steady-state delivery allocates zero minor words"
      `Quick test_zero_minor_alloc_steady_state;
  ]
