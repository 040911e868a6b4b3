(* Telemetry subsystem: metrics registry, sinks, spans, Chrome-trace
   export, and the instrumentation contracts of the network and the
   mechanism (counter conservation, zero allocation when disabled,
   golden trace of a fixed-seed concurrent run). *)

module Sm = Prng.Splitmix
module M = Oat.Mechanism.Make (Agg.Ops.Sum)

(* ---- metrics registry ---- *)

let test_counter () =
  let m = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter m "c" in
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.add c 10;
  Alcotest.(check int) "value" 11 (Telemetry.Metrics.counter_value c);
  (* registration is idempotent: same name, same handle *)
  let c' = Telemetry.Metrics.counter m "c" in
  Telemetry.Metrics.incr c';
  Alcotest.(check int) "shared handle" 12 (Telemetry.Metrics.counter_value c);
  Alcotest.check_raises "type clash"
    (Invalid_argument
       "Metrics.gauge: \"c\" already registered with another type") (fun () ->
      ignore (Telemetry.Metrics.gauge m "c"))

let test_gauge_hwm () =
  let m = Telemetry.Metrics.create () in
  let g = Telemetry.Metrics.gauge m "g" in
  Telemetry.Metrics.gauge_set g 5;
  Telemetry.Metrics.gauge_set g 3;
  Telemetry.Metrics.gauge_add g 1;
  Alcotest.(check int) "value" 4 (Telemetry.Metrics.gauge_value g);
  Alcotest.(check int) "hwm" 5 (Telemetry.Metrics.gauge_hwm g)

let test_histogram () =
  let m = Telemetry.Metrics.create () in
  let h = Telemetry.Metrics.histogram m "h" in
  List.iter (Telemetry.Metrics.observe h) [ 0; 1; 2; 3; 4; 100 ];
  Alcotest.(check int) "count" 6 (Telemetry.Metrics.histogram_count h);
  Alcotest.(check int) "sum" 110 (Telemetry.Metrics.histogram_sum h);
  Alcotest.(check int) "max" 100 (Telemetry.Metrics.histogram_max h);
  (* p50: rank 3 of {0,1,2,3,4,100} is 2, bucket [2,4) upper edge 3 *)
  Alcotest.(check int) "p50" 3 (Telemetry.Metrics.quantile h 0.5);
  (* p99 lands in the max's bucket, so the clamp makes it exact *)
  Alcotest.(check int) "p99" 100 (Telemetry.Metrics.quantile h 0.99);
  Alcotest.(check int) "empty quantile" 0
    (Telemetry.Metrics.quantile (Telemetry.Metrics.histogram m "h2") 0.5)

let test_reset_keeps_handles () =
  let m = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter m "c" in
  let g = Telemetry.Metrics.gauge m "g" in
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.gauge_set g 7;
  Telemetry.Metrics.reset m;
  Alcotest.(check int) "counter zeroed" 0 (Telemetry.Metrics.counter_value c);
  Alcotest.(check int) "gauge hwm zeroed" 0 (Telemetry.Metrics.gauge_hwm g);
  Telemetry.Metrics.incr c;
  Alcotest.(check int) "handle still live" 1 (Telemetry.Metrics.counter_value c)

(* ---- ring-buffer sink ---- *)

let mark i =
  Telemetry.Sink.Mark { time = float_of_int i; shard = 0; node = i; name = "m" }

let test_ring_bounded () =
  let r = Telemetry.Sink.ring ~capacity:4 in
  let sink = Telemetry.Sink.of_ring r in
  for i = 1 to 10 do
    Telemetry.Sink.record sink (mark i)
  done;
  Alcotest.(check int) "length capped" 4 (Telemetry.Sink.ring_length r);
  Alcotest.(check int) "total" 10 (Telemetry.Sink.ring_total r);
  Alcotest.(check int) "dropped" 6 (Telemetry.Sink.ring_dropped r);
  (* oldest overwritten first: events 7..10 remain, in order *)
  let nodes =
    List.map
      (function Telemetry.Sink.Mark { node; _ } -> node | _ -> -1)
      (Telemetry.Sink.ring_events r)
  in
  Alcotest.(check (list int)) "oldest first" [ 7; 8; 9; 10 ] nodes;
  Telemetry.Sink.ring_clear r;
  Alcotest.(check int) "cleared" 0 (Telemetry.Sink.ring_length r);
  Alcotest.(check int) "total cleared" 0 (Telemetry.Sink.ring_total r)

let test_null_sink_no_alloc () =
  let sink = Telemetry.Sink.null in
  Alcotest.(check bool) "disabled" false (Telemetry.Sink.enabled sink);
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    (* the guarded instrumentation pattern used by every hot path *)
    if Telemetry.Sink.enabled sink then
      Telemetry.Sink.record sink
        (Telemetry.Sink.Sent { time = 0.0; shard = 0; src = i; dst = 0; kind = 0 })
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k disabled records allocate nothing (%g words)" delta)
    true (delta < 1000.0)

let test_span_disabled_is_free () =
  let alloc = Telemetry.Span.allocator () in
  let clock () = Alcotest.fail "clock consulted behind a disabled sink" in
  let id =
    Telemetry.Span.start Telemetry.Sink.null alloc ~clock ~node:0 ~name:"s"
  in
  Alcotest.(check bool) "sentinel id" true (id < 0);
  Telemetry.Span.finish Telemetry.Sink.null ~clock ~node:0 ~name:"s" ~id

(* ---- counter conservation: network bookkeeping vs telemetry ---- *)

let prop_counter_conservation =
  QCheck.Test.make ~count:50 ~name:"network counters = telemetry counters"
    QCheck.(pair (int_range 2 16) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Sm.create seed in
      let t = Tree.Build.random rng n in
      let metrics = Telemetry.Metrics.create () in
      let net = Simul.Network.create ~metrics t in
      let pool = Simul.Frame.create_pool () in
      let kinds = Array.of_list Simul.Kind.all in
      let release ~src:_ ~dst:_ f = Simul.Frame.release f in
      for _ = 1 to 1000 do
        if Sm.bool rng then begin
          let u = Sm.int rng n in
          match Tree.neighbors_arr t u with
          | [||] -> ()
          | nbrs ->
            let dst = Sm.pick rng nbrs in
            let f = Simul.Frame.alloc pool in
            Simul.Frame.set_kind f (Simul.Kind.index (Sm.pick rng kinds));
            Simul.Network.send net ~src:u ~dst f
        end
        else ignore (Simul.Network.deliver_random net rng ~handler:release)
      done;
      let delivered_total = ref 0 in
      List.iter
        (fun k ->
          let name = Simul.Kind.to_string k in
          let sent_ctr =
            Telemetry.Metrics.counter_value
              (Telemetry.Metrics.counter metrics ("net.sent." ^ name))
          in
          let delivered_ctr =
            Telemetry.Metrics.counter_value
              (Telemetry.Metrics.counter metrics ("net.delivered." ^ name))
          in
          delivered_total := !delivered_total + delivered_ctr;
          if Simul.Network.total_of_kind net k <> sent_ctr then
            QCheck.Test.fail_reportf "kind %s: total %d <> sent counter %d"
              name
              (Simul.Network.total_of_kind net k)
              sent_ctr)
        Simul.Kind.all;
      (* sent - delivered = in flight, and the gauge agrees *)
      Simul.Network.total net - !delivered_total = Simul.Network.in_flight net
      && Telemetry.Metrics.gauge_value
           (Telemetry.Metrics.gauge metrics "net.in_flight")
         = Simul.Network.in_flight net)

(* ---- the mechanism's per-edge ledger vs the network's totals ---- *)

(* Every frame is counted once in the mechanism's per-slot ledger as it
   leaves, and, fault-free, is one transmission on some network, so the
   ledger summed over the tree's ordered pairs equals the per-kind
   totals of whichever networks carried the run. *)
let ledger_mismatch sys total_of_kind =
  List.find_map
    (fun k ->
      let sum =
        List.fold_left
          (fun acc (u, v) -> acc + M.sent sys ~src:u ~dst:v k)
          0
          (Tree.ordered_pairs (M.tree sys))
      in
      if sum <> total_of_kind k then
        Some (Printf.sprintf "kind %s: ledger sums to %d, network counted %d"
                (Simul.Kind.to_string k) sum (total_of_kind k))
      else None)
    Simul.Kind.all

(* [(node, request at node)] pairs. *)
let random_requests rng sys n ~n_requests =
  Array.init n_requests (fun i ->
      let node = Sm.int rng n in
      ( node,
        if Sm.bool rng then fun () -> M.write sys ~node (float_of_int i)
        else fun () -> M.combine sys ~node (fun _ -> ()) ))

let prop_ledger_conservation =
  QCheck.Test.make ~count:50 ~name:"mechanism ledger = network kind totals"
    QCheck.(triple (int_range 2 24) (int_range 0 10_000) bool)
    (fun (n, seed, concurrent) ->
      let rng = Sm.create seed in
      let t = Tree.Build.random rng n in
      let policy = if Sm.bool rng then Oat.Rww.policy else Oat.Ab_policy.never_lease in
      let sys = M.create t ~policy in
      let requests = Array.map snd (random_requests rng sys n ~n_requests:80) in
      if concurrent then
        Simul.Engine.run_concurrent ~rng:(Sm.split rng) (M.network sys)
          ~handler:(M.handler sys) ~requests
      else
        Array.iter
          (fun r ->
            r ();
            ignore (M.run_to_quiescence sys))
          requests;
      match
        ledger_mismatch sys (Simul.Network.total_of_kind (M.network sys))
      with
      | Some e -> QCheck.Test.fail_report e
      | None -> true)

(* The same identity on two domains: the frames leave through the
   mechanism's ledger and are counted by the shard networks. *)
let test_ledger_two_domains () =
  let tree = Tree.Build.binary 31 in
  let n = Tree.n_nodes tree in
  let sys = M.create tree ~policy:Oat.Rww.policy in
  let sh =
    Simul.Sharded.create tree
      ~partition:(Tree.Partition.create tree ~shards:2)
      ~handler:(M.handler sys)
  in
  M.set_outbox sys ~send:(Simul.Sharded.route sh)
    ~pool_for:(Simul.Sharded.pool_for sh);
  let rng = Sm.create 2026 in
  let reqs = random_requests rng sys n ~n_requests:200 in
  Simul.Sharded.run_open sh
    ~requests:(Array.mapi (fun i (node, r) -> (i / 8, node, r)) reqs);
  Alcotest.(check bool) "quiescent" true (Simul.Sharded.is_quiescent sh);
  Alcotest.(check bool) "some traffic" true (Simul.Sharded.total sh > 0);
  Alcotest.(check (option string)) "ledger = shard totals" None
    (ledger_mismatch sys (Simul.Sharded.total_of_kind sh))

(* ---- mechanism lease-lifecycle counters (deterministic pin) ---- *)

let test_mechanism_counters () =
  let tree = Tree.Build.binary 15 in
  let sigma =
    Workload.Generate.mixed
      { Workload.Generate.default_spec with n_requests = 200 }
      tree (Sm.create 7)
  in
  let metrics = Telemetry.Metrics.create () in
  let sys = M.create ~metrics tree ~policy:Oat.Rww.policy in
  ignore (M.run_sequential sys sigma);
  let counter name =
    Telemetry.Metrics.counter_value (Telemetry.Metrics.counter metrics name)
  in
  (* every grant answered a probe, so set + deny <= probes delivered *)
  Alcotest.(check bool) "grants bounded by probes" true
    (counter "mech.lease.set" + counter "mech.lease.deny"
    <= counter "net.delivered.probe");
  (* every break sent exactly one release *)
  Alcotest.(check int) "breaks = releases sent" (counter "net.sent.release")
    (counter "mech.lease.break");
  (* fanout histogram sums to the updates actually sent *)
  Alcotest.(check int) "fanout sum = updates sent"
    (counter "net.sent.update")
    (Telemetry.Metrics.histogram_sum
       (Telemetry.Metrics.histogram metrics "mech.update.fanout"));
  (* network totals agree with the mechanism's own accessors *)
  Alcotest.(check int) "sent probes" (M.messages_of_kind sys Simul.Kind.Probe)
    (counter "net.sent.probe");
  (* pinned lifecycle counts for this fixed seed *)
  Alcotest.(check int) "lease sets" 174 (counter "mech.lease.set");
  Alcotest.(check int) "lease breaks" 157 (counter "mech.lease.break");
  Alcotest.(check int) "lease denials" 0 (counter "mech.lease.deny")

(* ---- minimal JSON parser (stdlib only, for the golden trace test) ---- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos
    else fail (Printf.sprintf "expected %c, got %c" c (peek ()))
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (match peek () with
          | 'n' ->
            Buffer.add_char b '\n';
            incr pos
          | 'u' ->
            Buffer.add_char b '?';
            pos := !pos + 5
          | c ->
            Buffer.add_char b c;
            incr pos);
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Jobj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ((key, v) :: acc)
          | '}' ->
            incr pos;
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Jobj (members [])
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        Jarr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            elems (v :: acc)
          | ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        Jarr (elems [])
      end
    | '"' -> Jstr (parse_string ())
    | 't' ->
      pos := !pos + 4;
      Jbool true
    | 'f' ->
      pos := !pos + 5;
      Jbool false
    | 'n' ->
      pos := !pos + 4;
      Jnull
    | _ ->
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr pos
      done;
      if !pos = start then fail "unexpected character";
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Jnum f
      | None -> fail "bad number")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Jobj kvs -> List.assoc_opt key kvs
  | _ -> None

(* ---- golden Chrome trace of a fixed-seed concurrent run ---- *)

(* Fixed-seed concurrent execution on a 7-node binary tree with a ring
   sink plugged into the mechanism, the network, and the engine.  The
   event and trace-entry counts are pinned: a change means the
   instrumentation points (or the schedule) moved. *)
let golden_run () =
  let tree = Tree.Build.binary 7 in
  let rng = Sm.create 2026 in
  let metrics = Telemetry.Metrics.create () in
  let ring = Telemetry.Sink.ring ~capacity:100_000 in
  let sink = Telemetry.Sink.of_ring ring in
  let sys = M.create ~metrics ~sink tree ~policy:Oat.Rww.policy in
  let requests =
    Array.init 30 (fun i ->
        let node = Sm.int rng 7 in
        if Sm.bool rng then fun () -> M.write sys ~node (float_of_int i)
        else fun () -> M.combine sys ~node (fun _ -> ()))
  in
  Simul.Engine.run_concurrent ~sink ~rng (M.network sys)
    ~handler:(M.handler sys) ~requests;
  (ring, sys)

let golden_events = 228

let test_golden_event_count () =
  let ring, sys = golden_run () in
  Alcotest.(check int) "ring event count" golden_events
    (Telemetry.Sink.ring_length ring);
  Alcotest.(check int) "no events dropped" 0 (Telemetry.Sink.ring_dropped ring);
  (* every message both ways through the sink: a Sent and a Delivered
     per message, and the run drained *)
  let sent, delivered =
    List.fold_left
      (fun (s, d) e ->
        match e with
        | Telemetry.Sink.Sent _ -> (s + 1, d)
        | Telemetry.Sink.Delivered _ -> (s, d + 1)
        | _ -> (s, d))
      (0, 0)
      (Telemetry.Sink.ring_events ring)
  in
  Alcotest.(check int) "sent events = message total" (M.message_total sys) sent;
  Alcotest.(check int) "delivered = sent" sent delivered

let test_golden_chrome_trace () =
  let ring, _sys = golden_run () in
  let trace =
    Telemetry.Export.chrome_trace
      ~kind_name:(fun i -> Simul.Kind.to_string (Simul.Kind.of_index i))
      ~n_nodes:7
      (Telemetry.Sink.ring_events ring)
  in
  let j =
    try parse_json trace with Bad_json msg -> Alcotest.fail ("bad JSON: " ^ msg)
  in
  let events =
    match member "traceEvents" j with
    | Some (Jarr l) -> l
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  (match member "displayTimeUnit" j with
  | Some (Jstr "ms") -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit");
  (* 7 thread_name metadata entries + one entry per recorded event
     (spans pair up: each begin/end pair collapses to one "X" entry) *)
  let spans, others =
    List.fold_left
      (fun (sp, ot) e ->
        match e with
        | Telemetry.Sink.Span_begin _ | Telemetry.Sink.Span_end _ ->
          (sp + 1, ot)
        | _ -> (sp, ot + 1))
      (0, 0)
      (Telemetry.Sink.ring_events ring)
  in
  Alcotest.(check bool) "spans all paired" true (spans mod 2 = 0);
  Alcotest.(check int) "trace entry count"
    (7 + others + (spans / 2))
    (List.length events);
  (* every entry Perfetto-requires name/ph/pid/tid; timed phases need ts *)
  List.iter
    (fun e ->
      let str_field f =
        match member f e with
        | Some (Jstr s) -> s
        | _ -> Alcotest.fail ("event missing string field " ^ f)
      in
      let num_field f =
        match member f e with
        | Some (Jnum x) -> x
        | _ -> Alcotest.fail ("event missing numeric field " ^ f)
      in
      ignore (str_field "name");
      let ph = str_field "ph" in
      Alcotest.(check bool) "known phase" true
        (List.mem ph [ "M"; "X"; "i" ]);
      Alcotest.(check (float 0.0)) "pid 0" 0.0 (num_field "pid");
      let tid = num_field "tid" in
      Alcotest.(check bool) "tid is a node or request track" true
        (tid >= 0.0 && tid < 30.0);
      if ph <> "M" then begin
        Alcotest.(check bool) "ts >= 0" true (num_field "ts" >= 0.0);
        if ph = "X" then
          Alcotest.(check bool) "dur >= 0" true (num_field "dur" >= 0.0)
      end)
    events

(* ---- Metrics.merge laws (QCheck) ---- *)

(* Random registry over a small shared name pool, so merging actually
   collides metrics of the same name and type. *)
let random_registry rng =
  let m = Telemetry.Metrics.create () in
  let ops = 1 + Sm.int rng 40 in
  for _ = 1 to ops do
    let suffix = string_of_int (Sm.int rng 3) in
    match Sm.int rng 3 with
    | 0 ->
      Telemetry.Metrics.add
        (Telemetry.Metrics.counter m ("c." ^ suffix))
        (Sm.int rng 100)
    | 1 ->
      Telemetry.Metrics.gauge_set
        (Telemetry.Metrics.gauge m ("g." ^ suffix))
        (Sm.int rng 100)
    | _ ->
      Telemetry.Metrics.observe
        (Telemetry.Metrics.histogram m ("h." ^ suffix))
        (Sm.int rng 10_000)
  done;
  m

(* [snapshot] is sorted by name and structural, so registry equality up
   to observation is plain [=] on snapshots. *)
let prop_merge_commutative =
  QCheck.Test.make ~count:100 ~name:"Metrics.merge commutes"
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let a () = random_registry (Sm.create (s1 + 1)) in
      let b () = random_registry (Sm.create (s2 + 1_000_001)) in
      Telemetry.Metrics.(snapshot (merge [ a (); b () ]))
      = Telemetry.Metrics.(snapshot (merge [ b (); a () ])))

let prop_merge_associative =
  QCheck.Test.make ~count:100 ~name:"Metrics.merge associates"
    QCheck.(triple small_nat small_nat small_nat)
    (fun (s1, s2, s3) ->
      let a () = random_registry (Sm.create (s1 + 1)) in
      let b () = random_registry (Sm.create (s2 + 1_000_001)) in
      let c () = random_registry (Sm.create (s3 + 2_000_003)) in
      Telemetry.Metrics.(snapshot (merge [ merge [ a (); b () ]; c () ]))
      = Telemetry.Metrics.(snapshot (merge [ a (); merge [ b (); c () ] ])))

let prop_merge_identity =
  QCheck.Test.make ~count:100 ~name:"Metrics.merge identity on empty"
    QCheck.small_nat
    (fun s ->
      let a () = random_registry (Sm.create (s + 1)) in
      Telemetry.Metrics.(snapshot (merge [ a (); create () ]))
      = Telemetry.Metrics.(snapshot (a ()))
      && Telemetry.Metrics.(snapshot (merge [ create (); a () ]))
         = Telemetry.Metrics.(snapshot (a ())))

(* The tentpole exactness claim: bucket-wise histogram merge means the
   merged registry's quantiles equal those of one registry fed the
   union of the observations — no approximation from merging. *)
let prop_merge_union_quantiles =
  QCheck.Test.make ~count:100 ~name:"merged quantiles = union quantiles"
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let rng1 = Sm.create (s1 + 7) and rng2 = Sm.create (s2 + 77) in
      let draw rng = List.init (1 + Sm.int rng 50) (fun _ -> Sm.int rng 100_000) in
      let xs = draw rng1 and ys = draw rng2 in
      let feed vals =
        let m = Telemetry.Metrics.create () in
        let h = Telemetry.Metrics.histogram m "h" in
        List.iter (Telemetry.Metrics.observe h) vals;
        m
      in
      let hm = Telemetry.Metrics.histogram (Telemetry.Metrics.merge [ feed xs; feed ys ]) "h" in
      let hu = Telemetry.Metrics.histogram (feed (xs @ ys)) "h" in
      List.for_all
        (fun q ->
          Telemetry.Metrics.quantile hm q = Telemetry.Metrics.quantile hu q)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]
      && Telemetry.Metrics.histogram_count hm = Telemetry.Metrics.histogram_count hu
      && Telemetry.Metrics.histogram_sum hm = Telemetry.Metrics.histogram_sum hu
      && Telemetry.Metrics.histogram_max hm = Telemetry.Metrics.histogram_max hu)

let test_merge_type_clash () =
  let a = Telemetry.Metrics.create () in
  let b = Telemetry.Metrics.create () in
  ignore (Telemetry.Metrics.counter a "x");
  ignore (Telemetry.Metrics.gauge b "x");
  Alcotest.check_raises "clash"
    (Invalid_argument "Metrics.counter: \"x\" already registered with another type")
    (fun () -> ignore (Telemetry.Metrics.merge [ b; a ]))

(* ---- Latency recorder ---- *)

let test_latency_lifecycle () =
  let l = Telemetry.Latency.create ~capacity:2 () in
  Alcotest.(check bool) "enabled" true (Telemetry.Latency.enabled l);
  Alcotest.(check bool) "null disabled" false
    (Telemetry.Latency.enabled Telemetry.Latency.null);
  (* three issues at two instants: two runs in the capacity-2 FIFO *)
  Telemetry.Latency.issue l 0.0;
  Telemetry.Latency.issue l 1.0;
  Telemetry.Latency.issue l 1.0;
  Alcotest.(check int) "outstanding" 3 (Telemetry.Latency.outstanding l);
  Telemetry.Latency.settle_oldest l ~time:4.0 ~msgs:6;
  (* settle_all splits 7 messages over 2 requests: 4 to the earliest,
     3 to the other — the sum must stay exact *)
  Telemetry.Latency.settle_all l ~time:9.0 ~msgs:7;
  Alcotest.(check int) "issued" 3 (Telemetry.Latency.issued l);
  Alcotest.(check int) "settled" 3 (Telemetry.Latency.settled l);
  Alcotest.(check int) "outstanding drained" 0 (Telemetry.Latency.outstanding l);
  Alcotest.(check int) "max latency" 8 (Telemetry.Latency.max_latency l);
  Alcotest.(check (float 1e-9)) "mean latency" (20.0 /. 3.0)
    (Telemetry.Latency.mean_latency l);
  Alcotest.(check int) "max msgs" 6 (Telemetry.Latency.max_msgs l);
  Alcotest.(check (float 1e-9)) "mean msgs" (13.0 /. 3.0)
    (Telemetry.Latency.mean_msgs l);
  Telemetry.Latency.reset l;
  Alcotest.(check int) "reset" 0 (Telemetry.Latency.issued l)

(* The recorder's FIFO holds runs of equal issue times; a reference kept
   here holds one issue time per request and settles each one on its
   own through [record] on a second recorder.  Every count, both
   histograms' quantiles, max and mean, and the text report must agree
   after each operation.  A capacity-1 FIFO makes the runs grow it. *)
type lat_op =
  | Issue of float * int (* [n] issues at one time *)
  | Oldest of float * int
  | All of float * int
  | Record of float * float * int
  | Reset

let lat_op_print = function
  | Issue (t, n) -> Printf.sprintf "issue %g x%d" t n
  | Oldest (t, m) -> Printf.sprintf "settle_oldest %g %d" t m
  | All (t, m) -> Printf.sprintf "settle_all %g %d" t m
  | Record (a, b, m) -> Printf.sprintf "record %g %g %d" a b m
  | Reset -> "reset"

let lat_op_gen =
  let open QCheck.Gen in
  let time = map (fun k -> float_of_int k /. 2.) (int_range 0 12) in
  frequency
    [
      (5, map2 (fun t n -> Issue (t, n)) time (int_range 1 4));
      (3, map2 (fun t m -> Oldest (t, m)) time (int_range 0 20));
      (2, map2 (fun t m -> All (t, m)) time (int_range 0 50));
      (1, map3 (fun a b m -> Record (a, b, m)) time time (int_range 0 20));
      (1, return Reset);
    ]

let prop_latency_runs =
  let module L = Telemetry.Latency in
  QCheck.Test.make ~count:300 ~name:"latency runs = per-request reference"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map lat_op_print ops))
        Gen.(list_size (int_range 0 60) lat_op_gen))
    (fun ops ->
      let l = L.create ~capacity:1 () in
      let reference = L.create () and fifo = Queue.create () in
      let issued = ref 0 and settled = ref 0 in
      let settle_ref t0 ~time ~msgs =
        L.record reference ~issued:t0 ~settled:time ~msgs;
        incr settled
      in
      let step = function
        | Issue (t, n) ->
          for _ = 1 to n do
            L.issue l t;
            Queue.push t fifo;
            incr issued
          done
        | Oldest (time, msgs) ->
          L.settle_oldest l ~time ~msgs;
          if not (Queue.is_empty fifo) then
            settle_ref (Queue.pop fifo) ~time ~msgs
        | All (time, msgs) ->
          L.settle_all l ~time ~msgs;
          let n = Queue.length fifo in
          if n > 0 then
            List.iteri
              (fun i t0 ->
                settle_ref t0 ~time
                  ~msgs:((msgs / n) + if i < msgs mod n then 1 else 0))
              (List.of_seq (Queue.to_seq fifo));
          Queue.clear fifo
        | Record (a, b, msgs) ->
          L.record l ~issued:a ~settled:b ~msgs;
          settle_ref a ~time:b ~msgs;
          incr issued
        | Reset ->
          L.reset l;
          L.reset reference;
          Queue.clear fifo;
          issued := 0;
          settled := 0
      in
      let agree op =
        let fail what = QCheck.Test.fail_reportf "after %s: %s" op what in
        if L.issued l <> !issued then fail "issued";
        if L.settled l <> !settled then fail "settled";
        if L.outstanding l <> Queue.length fifo then fail "outstanding";
        if L.mean_latency l <> L.mean_latency reference then fail "mean latency";
        if L.mean_msgs l <> L.mean_msgs reference then fail "mean msgs";
        (* the report's first line is the three counts above; the other
           two hold both histograms' p50/p90/p99 and max *)
        let histograms r =
          let s = L.to_text r in
          let i = String.index s '\n' in
          String.sub s i (String.length s - i)
        in
        if histograms l <> histograms reference then
          fail
            (Printf.sprintf "report %S, expected %S" (L.to_text l)
               (L.to_text reference))
      in
      List.iter
        (fun op ->
          step op;
          agree (lat_op_print op))
        ops;
      true)

(* A window's requests issued at one instant are one run: the recorder
   does not grow however many there are (a FIFO of issue times grows
   to 131 072 floats here). *)
let test_latency_one_instant () =
  let l = Telemetry.Latency.create () in
  let words () = Obj.reachable_words (Obj.repr l) in
  let w0 = words () in
  for _ = 1 to 100_000 do
    Telemetry.Latency.issue l 7.0
  done;
  Alcotest.(check int) "outstanding" 100_000 (Telemetry.Latency.outstanding l);
  Alcotest.(check int) "words as after create" w0 (words ());
  Telemetry.Latency.settle_all l ~time:9.0 ~msgs:100_001;
  Alcotest.(check int) "settled" 100_000 (Telemetry.Latency.settled l);
  Alcotest.(check int) "max latency" 2 (Telemetry.Latency.max_latency l);
  Alcotest.(check int) "max msgs" 2 (Telemetry.Latency.max_msgs l);
  Alcotest.(check (float 1e-9)) "mean msgs" 1.00001
    (Telemetry.Latency.mean_msgs l)

(* Fixed-seed latency golden: the 438-message concurrent run (binary-31,
   seed 777, 150 requests, ghost logs on) with a recorder attached.  The
   engine's latency accounting must not perturb the schedule — the
   message total stays pinned — and the quantiles themselves are pinned:
   a change means either the schedule moved or the settle rule did. *)
let test_latency_golden_438 () =
  let n = 31 in
  let tree = Tree.Build.binary n in
  let rng = Sm.create 777 in
  let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
  let requests =
    Array.init 150 (fun i ->
        let node = Sm.int rng n in
        if Sm.bool rng then fun () -> M.write sys ~node (float_of_int i)
        else fun () -> M.combine sys ~node (fun _ -> ()))
  in
  let lat = Telemetry.Latency.create () in
  Simul.Engine.run_concurrent ~latency:lat
    ~rng:(Sm.split rng) (M.network sys) ~handler:(M.handler sys) ~requests;
  Alcotest.(check int) "total still pinned" 438 (M.message_total sys);
  Alcotest.(check int) "all issued" 150 (Telemetry.Latency.issued lat);
  Alcotest.(check int) "all settled" 150 (Telemetry.Latency.settled lat);
  Alcotest.(check int) "none outstanding" 0 (Telemetry.Latency.outstanding lat);
  let q p = Telemetry.Latency.quantile lat p in
  Alcotest.(check (list int)) "latency quantiles p50/p90/p99/max"
    [ 876; 876; 876; 876 ]
    [ q 0.5; q 0.9; q 0.99; Telemetry.Latency.max_latency lat ];
  Alcotest.(check (list int)) "msgs quantiles p50/p99/max"
    [ 3; 3; 3 ]
    [
      Telemetry.Latency.msgs_quantile lat 0.5;
      Telemetry.Latency.msgs_quantile lat 0.99;
      Telemetry.Latency.max_msgs lat;
    ]

(* ---- Series sampler ---- *)

let test_series_ring () =
  let s = Telemetry.Series.create ~capacity:4 () in
  for w = 0 to 9 do
    Telemetry.Series.sample s ~window:w ~deliveries:(10 * w) ~in_flight:w
      ~mailbox_hwm:(w / 2) ~stalls:0 ~gc_words:(100 * w)
  done;
  Alcotest.(check int) "length capped" 4 (Telemetry.Series.length s);
  Alcotest.(check int) "total" 10 (Telemetry.Series.total s);
  Alcotest.(check int) "dropped" 6 (Telemetry.Series.dropped s);
  (* oldest overwritten: windows 6..9 remain, in order *)
  let windows =
    List.map
      (fun (r : Telemetry.Series.sample) -> r.s_window)
      (Telemetry.Series.samples s)
  in
  Alcotest.(check (list int)) "oldest first" [ 6; 7; 8; 9 ] windows;
  let csv = Telemetry.Series.to_csv s in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv = header + rows" 5 (List.length lines);
  Alcotest.(check string) "csv header" Telemetry.Series.csv_header
    (List.hd lines);
  (match parse_json (Telemetry.Series.to_json s) with
  | exception Bad_json msg -> Alcotest.fail ("bad series JSON: " ^ msg)
  | j -> (
    match member "samples" j with
    | Some (Jarr rows) -> Alcotest.(check int) "json rows" 4 (List.length rows)
    | _ -> Alcotest.fail "missing samples array"));
  Telemetry.Series.clear s;
  Alcotest.(check int) "cleared" 0 (Telemetry.Series.length s)

(* ---- conservation auditor ---- *)

let test_audit () =
  let a = Telemetry.Audit.create () in
  Telemetry.Audit.check_conservation a ~window:0 ~sent:10 ~delivered:7
    ~in_flight:3 ~dropped:0;
  Telemetry.Audit.check_crossings a ~window:0 ~out:5 ~into:4 ~pending:1;
  Telemetry.Audit.check_frames a ~window:0 ~live:3 ~in_flight:3;
  Alcotest.(check int) "checks" 3 (Telemetry.Audit.checks a);
  Alcotest.(check int) "no violations" 0 (Telemetry.Audit.violations a);
  Alcotest.(check bool) "no last" true
    (Telemetry.Audit.last_violation a = None);
  (try
     Telemetry.Audit.check_frames a ~window:1 ~live:2 ~in_flight:3;
     Alcotest.fail "expected Audit.Violation"
   with Telemetry.Audit.Violation _ -> ());
  Alcotest.(check int) "violation counted" 1 (Telemetry.Audit.violations a);
  Alcotest.(check bool) "last recorded" true
    (Telemetry.Audit.last_violation a <> None);
  (* a collecting handler instead of the raising default *)
  let seen = ref [] in
  let b = Telemetry.Audit.create ~on_violation:(fun m -> seen := m :: !seen) () in
  Telemetry.Audit.check_conservation b ~window:2 ~sent:1 ~delivered:0
    ~in_flight:0 ~dropped:0;
  Alcotest.(check int) "collected" 1 (List.length !seen)

(* ---- exports parse back (text and JSON snapshots) ---- *)

let test_metrics_json_parses () =
  let _ring, _sys = golden_run () in
  let metrics = Telemetry.Metrics.create () in
  let sys2 = M.create ~metrics (Tree.Build.binary 7) ~policy:Oat.Rww.policy in
  M.write_sync sys2 ~node:3 1.0;
  ignore (M.combine_sync sys2 ~node:0);
  match parse_json (Telemetry.Metrics.to_json metrics) with
  | exception Bad_json msg -> Alcotest.fail ("bad JSON: " ^ msg)
  | j -> (
    match member "metrics" j with
    | Some (Jarr rows) ->
      Alcotest.(check bool) "has rows" true (List.length rows > 0);
      List.iter
        (fun r ->
          match (member "name" r, member "type" r) with
          | Some (Jstr _), Some (Jstr ty) ->
            Alcotest.(check bool) "known type" true
              (List.mem ty [ "counter"; "gauge"; "histogram" ])
          | _ -> Alcotest.fail "row missing name/type")
        rows
    | _ -> Alcotest.fail "missing metrics array")

let suite =
  [
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "gauge hwm" `Quick test_gauge_hwm;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram;
    Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
    Alcotest.test_case "ring bounded" `Quick test_ring_bounded;
    Alcotest.test_case "null sink allocation-free" `Quick
      test_null_sink_no_alloc;
    Alcotest.test_case "span disabled is free" `Quick
      test_span_disabled_is_free;
    QCheck_alcotest.to_alcotest prop_counter_conservation;
    QCheck_alcotest.to_alcotest prop_ledger_conservation;
    Alcotest.test_case "mechanism ledger = shard totals on 2 domains" `Quick
      test_ledger_two_domains;
    Alcotest.test_case "mechanism lease counters" `Quick
      test_mechanism_counters;
    Alcotest.test_case "golden event count" `Quick test_golden_event_count;
    Alcotest.test_case "golden chrome trace" `Quick test_golden_chrome_trace;
    Alcotest.test_case "metrics JSON parses" `Quick test_metrics_json_parses;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    QCheck_alcotest.to_alcotest prop_merge_identity;
    QCheck_alcotest.to_alcotest prop_merge_union_quantiles;
    Alcotest.test_case "merge type clash" `Quick test_merge_type_clash;
    Alcotest.test_case "latency lifecycle" `Quick test_latency_lifecycle;
    QCheck_alcotest.to_alcotest prop_latency_runs;
    Alcotest.test_case "latency: one instant is one run" `Quick
      test_latency_one_instant;
    Alcotest.test_case "latency golden 438" `Quick test_latency_golden_438;
    Alcotest.test_case "series ring" `Quick test_series_ring;
    Alcotest.test_case "conservation audit" `Quick test_audit;
  ]
