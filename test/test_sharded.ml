(* Differential tests for the sharded multicore engine: every pinned
   golden config runs through both the single-domain scheduler and
   [Simul.Sharded] at 1/2/4/8 domains, and the totals must agree.

   Two equivalence regimes:
   - The sequential goldens (1557/574/974) re-run on the free-running
     windowed engine: each request initiates in a quiescent state, so
     the mechanism's confluence (Lemmas 3.3-3.5) makes the quiescent
     state — totals, kind counts, combine results, final values —
     independent of delivery order, and the sharded schedule is one
     more legal order.
   - The concurrent goldens (438/1171/228) are schedule-dependent, so
     the single-domain run is recorded (every delivery and initiation)
     and replayed message-for-message across the shard domains: the
     equality is exact, not merely confluent.

   [OAT_DOMAINS] (space- or comma-separated shard counts) overrides the
   default 1/2/4/8 sweep — CI uses it to force a 4-domain pass.
   [OAT_PARTITION=weighted] switches every sharded run onto the
   subtree-weighted partitioner — CI runs the whole differential suite
   once under it, since equivalence must hold for any partition.
   [OAT_OBSERVE=1] runs every sharded system with the full
   observability layer enabled (latency recorder + series sampler on
   top of the always-on metrics and conservation audit) — CI runs the
   suite once like this to prove instrumentation never perturbs the
   goldens. *)

module Sm = Prng.Splitmix
module M = Oat.Mechanism.Make (Agg.Ops.Sum)

let domain_counts =
  match Sys.getenv_opt "OAT_DOMAINS" with
  | None -> [ 1; 2; 4; 8 ]
  | Some s -> (
    let toks =
      String.split_on_char ' ' (String.trim s)
      |> List.concat_map (String.split_on_char ',')
    in
    match List.filter_map int_of_string_opt toks with
    | [] -> [ 1; 2; 4; 8 ]
    | l -> l)

let env_strategy =
  match Sys.getenv_opt "OAT_PARTITION" with
  | Some "weighted" -> "weighted"
  | _ -> "naive"

let observe =
  match Sys.getenv_opt "OAT_OBSERVE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let mk_partition ?(strategy = env_strategy) tree ~shards =
  match strategy with
  | "weighted" ->
    Tree.Partition.create_weighted tree ~shards
      ~weights:(Tree.Partition.subtree_weights tree)
  | _ -> Tree.Partition.create tree ~shards

(* A mechanism wired to a sharded runtime: per-shard pools and
   networks, cross-shard mailboxes.  [sink] is the mechanism's own;
   [trace] gives every shard network an event ring. *)
let mk_sharded ?(ghost = false) ?sink ?metrics ?trace ?strategy tree ~domains =
  let part = mk_partition ?strategy tree ~shards:domains in
  let sys = M.create ~ghost ?sink ?metrics tree ~policy:Oat.Rww.policy in
  let sh =
    Simul.Sharded.create ?trace tree ~partition:part
      ~latency:
        (if observe then Telemetry.Latency.create () else Telemetry.Latency.null)
      ~series:
        (if observe then Telemetry.Series.create () else Telemetry.Series.null)
      ~handler:(M.handler sys)
  in
  M.set_outbox sys
    ~send:(Simul.Sharded.route sh)
    ~pool_for:(Simul.Sharded.pool_for sh);
  (sys, sh)

let kind_counts_net total_of_kind =
  ( total_of_kind Simul.Kind.Probe,
    total_of_kind Simul.Kind.Response,
    total_of_kind Simul.Kind.Update,
    total_of_kind Simul.Kind.Release )

let final_state sys n =
  Array.init n (fun u ->
      (Int64.bits_of_float (M.local_value sys u), Int64.bits_of_float (M.gval sys u)))

let check_drained name sh =
  Simul.Sharded.check_invariants sh;
  Alcotest.(check bool) (name ^ ": quiescent") true (Simul.Sharded.is_quiescent sh);
  Alcotest.(check int) (name ^ ": no leaked frames") 0 (Simul.Sharded.live_frames sh);
  (* the conservation auditor is always on; a quiescent system must
     have a clean ledger, and under OAT_OBSERVE the latency FIFO must
     have drained (replay runs bypass the windowed path, where both
     counts are trivially zero) *)
  Alcotest.(check int)
    (name ^ ": audit violations") 0
    (Telemetry.Audit.violations (Simul.Sharded.audit sh));
  if observe then
    Alcotest.(check int)
      (name ^ ": latency drained") 0
      (Telemetry.Latency.outstanding (Simul.Sharded.latency sh))

(* ------------------------------------------------------------------ *)
(* Sequential goldens on the free-running windowed engine.             *)

let golden_requests n ~seed ~n_requests =
  let rng = Sm.create seed in
  List.init n_requests (fun i ->
      let node = Sm.int rng n in
      if Sm.bool rng then Oat.Request.write node (float_of_int i)
      else Oat.Request.combine node)

let seq_reference tree ~seed =
  let n = Tree.n_nodes tree in
  let sys = M.create tree ~policy:Oat.Rww.policy in
  let results =
    M.run_sequential sys (golden_requests n ~seed ~n_requests:200)
  in
  let returned =
    List.map (fun (r : float Oat.Request.result) ->
        Option.map Int64.bits_of_float r.returned)
      results
  in
  (M.message_total sys, kind_counts_net (M.messages_of_kind sys), returned,
   final_state sys n)

(* [(node, thunk)] per request, for [Sharded.run_sequential];
   [on_combine i] receives the i-th request's aggregate. *)
let request_thunks sys reqs ~on_combine =
  Array.mapi
    (fun i (q : float Oat.Request.t) ->
      let node = q.Oat.Request.node in
      match q.Oat.Request.op with
      | Oat.Request.Write v -> (node, fun () -> M.write sys ~node v)
      | Oat.Request.Combine -> (node, fun () -> M.combine sys ~node (on_combine i)))
    reqs

let seq_sharded ?strategy tree ~seed ~domains =
  let n = Tree.n_nodes tree in
  let sys, sh = mk_sharded ?strategy tree ~domains in
  let reqs = Array.of_list (golden_requests n ~seed ~n_requests:200) in
  let returned = Array.make (Array.length reqs) None in
  let requests =
    request_thunks sys reqs ~on_combine:(fun i v ->
        returned.(i) <- Some (Int64.bits_of_float v))
  in
  Simul.Sharded.run_sequential sh ~requests;
  let name = Printf.sprintf "domains=%d" domains in
  check_drained name sh;
  M.check_invariants sys;
  ( (Simul.Sharded.total sh, kind_counts_net (Simul.Sharded.total_of_kind sh)),
    (M.message_total sys, kind_counts_net (M.messages_of_kind sys)),
    Array.to_list returned,
    final_state sys n )

let quad (a, b, c, d) = ((a, b), (c, d))
let quad_t = Alcotest.(pair (pair int int) (pair int int))

let diff_sequential ?strategy name tree ~seed ~expect_total =
  let ((ref_total, ref_kinds, ref_ret, ref_state) as reference) =
    seq_reference tree ~seed
  in
  Alcotest.(check int) (name ^ ": reference total") expect_total ref_total;
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "%s @ %d domains" name domains in
      let sharded = seq_sharded ?strategy tree ~seed ~domains in
      let (sh_total, sh_kinds), (m_total, m_kinds), sh_ret, sh_state =
        sharded
      in
      Alcotest.(check int) (tag ^ ": total") ref_total sh_total;
      Alcotest.check quad_t (tag ^ ": kind counts") (quad ref_kinds)
        (quad sh_kinds);
      (* the mechanism's own totals read its ledger, so they see the
         sharded traffic as well *)
      Alcotest.(check int) (tag ^ ": mechanism total") ref_total m_total;
      Alcotest.check quad_t (tag ^ ": mechanism kind counts") (quad ref_kinds)
        (quad m_kinds);
      Alcotest.(check (list (option int64)))
        (tag ^ ": combine results") ref_ret sh_ret;
      Alcotest.(check bool) (tag ^ ": final state") true (ref_state = sh_state);
      ignore reference)
    domain_counts

let test_differential_sequential () =
  diff_sequential "line-16" (Tree.Build.path 16) ~seed:101 ~expect_total:1557;
  diff_sequential "star-16" (Tree.Build.star 16) ~seed:102 ~expect_total:574;
  diff_sequential "binary-15" (Tree.Build.binary 15) ~seed:103 ~expect_total:974

(* The same goldens with the weighted partitioner forced (regardless of
   OAT_PARTITION): shard-count equivalence must hold for ANY
   partition, and the weighted split places the cuts differently —
   notably on the path, where subtree weights are maximally skewed. *)
let test_differential_sequential_weighted () =
  diff_sequential ~strategy:"weighted" "line-16/weighted"
    (Tree.Build.path 16) ~seed:101 ~expect_total:1557;
  diff_sequential ~strategy:"weighted" "binary-15/weighted"
    (Tree.Build.binary 15) ~seed:103 ~expect_total:974

(* ------------------------------------------------------------------ *)
(* Per-edge costs on the sharded engine.                               *)

(* [cost_between] reads the mechanism's per-slot ledger, counted as each
   frame leaves, so under [set_outbox] it sees the sharded traffic: at
   every domain count each ordered pair's cost equals the one-domain
   run's and the (1,2) machine's cost on the projected sequence
   (Lemma 4.5). *)
let test_sharded_per_edge_costs () =
  let tree = Tree.Build.binary 63 in
  let sigma = golden_requests (Tree.n_nodes tree) ~seed:2611 ~n_requests:200 in
  let pairs = Tree.ordered_pairs tree in
  let reference = M.create tree ~policy:Oat.Rww.policy in
  ignore (M.run_sequential reference sigma);
  List.iter
    (fun (u, v) ->
      Alcotest.(check int)
        (Printf.sprintf "one domain: C(sigma,%d,%d)" u v)
        (Lp.Transition_system.rww_cost_of_sequence
           (Offline.Edge_seq.project tree ~u ~v sigma))
        (M.cost_between reference u v))
    pairs;
  List.iter
    (fun domains ->
      let sys, sh = mk_sharded tree ~domains in
      Simul.Sharded.run_sequential sh
        ~requests:
          (request_thunks sys (Array.of_list sigma) ~on_combine:(fun _ _ -> ()));
      let tag = Printf.sprintf "%d domains" domains in
      check_drained tag sh;
      List.iter
        (fun (u, v) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: C(sigma,%d,%d)" tag u v)
            (M.cost_between reference u v)
            (M.cost_between sys u v))
        pairs)
    domain_counts

(* ------------------------------------------------------------------ *)
(* Concurrent goldens by record/replay.                                *)

type rstep = RDeliver of int * int | RInit of int
type rspec = { node : int; write : float option }

(* Re-run the pinned concurrent config on the single-domain engine,
   recording the full schedule: every delivery (directed channel) and
   every initiation, in execution order.  The PRNG discipline is
   identical to the pinned tests', so the recorded run IS the golden
   run. *)
let record_concurrent ?(ghost = false) tree ~seed ~n_requests =
  let n = Tree.n_nodes tree in
  let rng = Sm.create seed in
  let sys = M.create ~ghost tree ~policy:Oat.Rww.policy in
  let sched = ref [] in
  let specs = Array.make n_requests { node = 0; write = None } in
  let requests =
    Array.init n_requests (fun i ->
        let node = Sm.int rng n in
        if Sm.bool rng then begin
          specs.(i) <- { node; write = Some (float_of_int i) };
          fun () ->
            sched := RInit i :: !sched;
            M.write sys ~node (float_of_int i)
        end
        else begin
          specs.(i) <- { node; write = None };
          fun () ->
            sched := RInit i :: !sched;
            M.combine sys ~node (fun _ -> ())
        end)
  in
  let handler ~src ~dst f =
    sched := RDeliver (src, dst) :: !sched;
    M.handler sys ~src ~dst f
  in
  Simul.Engine.run_concurrent ~rng:(Sm.split rng) (M.network sys) ~handler
    ~requests;
  (sys, Array.of_list (List.rev !sched), specs)

let replay_concurrent ?(ghost = false) ?sink ?trace ?marks tree ~domains
    ~(sched : rstep array) ~(specs : rspec array) =
  let sys, sh = mk_sharded ~ghost ?sink ?trace tree ~domains in
  let schedule =
    Array.map
      (function
        | RDeliver (src, dst) -> Simul.Sharded.Deliver { src; dst }
        | RInit i ->
          let { node; write } = specs.(i) in
          let run () =
            (match marks with
            | Some sink ->
              Telemetry.Sink.record sink
                (Telemetry.Sink.Mark
                   { time = 0.; shard = 0; node = i; name = "initiate" })
            | None -> ());
            match write with
            | Some v -> M.write sys ~node v
            | None -> M.combine sys ~node (fun _ -> ())
          in
          Simul.Sharded.Init { node; run })
      sched
  in
  Simul.Sharded.run_replay sh ~schedule;
  (sys, sh)

let diff_concurrent name ?(ghost = false) tree ~seed ~n_requests ~expect_total =
  let n = Tree.n_nodes tree in
  let ref_sys, sched, specs = record_concurrent ~ghost tree ~seed ~n_requests in
  Alcotest.(check int)
    (name ^ ": reference total") expect_total (M.message_total ref_sys);
  let ref_kinds = kind_counts_net (M.messages_of_kind ref_sys) in
  let ref_state = final_state ref_sys n in
  let causal sys =
    if not ghost then -1
    else
      let logs = Array.init n (fun u -> M.log sys u) in
      List.length
        (Consistency.Causal.check
           (module Agg.Ops.Sum : Agg.Operator.S with type t = float)
           ~n_nodes:n ~logs)
  in
  let ref_causal = causal ref_sys in
  if ghost then
    Alcotest.(check int) (name ^ ": reference causally consistent") 0 ref_causal;
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "%s @ %d domains" name domains in
      let sys, sh = replay_concurrent ~ghost tree ~domains ~sched ~specs in
      check_drained tag sh;
      M.check_invariants sys;
      Alcotest.(check int) (tag ^ ": total") expect_total (Simul.Sharded.total sh);
      Alcotest.check quad_t (tag ^ ": kind counts") (quad ref_kinds)
        (quad (kind_counts_net (Simul.Sharded.total_of_kind sh)));
      Alcotest.(check int)
        (tag ^ ": mechanism total") expect_total (M.message_total sys);
      Alcotest.check quad_t (tag ^ ": mechanism kind counts") (quad ref_kinds)
        (quad (kind_counts_net (M.messages_of_kind sys)));
      Alcotest.(check bool)
        (tag ^ ": final state") true
        (ref_state = final_state sys n);
      Alcotest.(check int) (tag ^ ": causal verdict") ref_causal (causal sys))
    domain_counts

let test_differential_concurrent_438 () =
  diff_concurrent "binary-31/seed-777" ~ghost:true (Tree.Build.binary 31)
    ~seed:777 ~n_requests:150 ~expect_total:438

let test_differential_concurrent_1171 () =
  diff_concurrent "binary-31/seed-4242" (Tree.Build.binary 31) ~seed:4242
    ~n_requests:200 ~expect_total:1171

(* The telemetry golden: same fixed-seed run as test_telemetry's
   [golden_run], whose ring must hold exactly 228 events.  In the
   sharded replay the mechanism records into a ring of its own and the
   shard networks into their [~trace] rings; together they must
   reproduce the same event census — one Sent and one Delivered per
   message, the same lease-lifecycle events, one Mark per initiation. *)
let test_differential_telemetry_228 () =
  let tree = Tree.Build.binary 7 in
  (* reference, recorded: replicate golden_run with recording wrappers *)
  let n_requests = 30 in
  let rng = Sm.create 2026 in
  let metrics = Telemetry.Metrics.create () in
  let ring = Telemetry.Sink.ring ~capacity:100_000 in
  let sink = Telemetry.Sink.of_ring ring in
  let sys = M.create ~metrics ~sink tree ~policy:Oat.Rww.policy in
  let sched = ref [] in
  let specs = Array.make n_requests { node = 0; write = None } in
  let requests =
    Array.init n_requests (fun i ->
        let node = Sm.int rng 7 in
        if Sm.bool rng then begin
          specs.(i) <- { node; write = Some (float_of_int i) };
          fun () ->
            sched := RInit i :: !sched;
            M.write sys ~node (float_of_int i)
        end
        else begin
          specs.(i) <- { node; write = None };
          fun () ->
            sched := RInit i :: !sched;
            M.combine sys ~node (fun _ -> ())
        end)
  in
  let handler ~src ~dst f =
    sched := RDeliver (src, dst) :: !sched;
    M.handler sys ~src ~dst f
  in
  Simul.Engine.run_concurrent ~sink ~rng (M.network sys) ~handler ~requests;
  Alcotest.(check int) "reference ring events" 228 (Telemetry.Sink.ring_length ring);
  let sched = Array.of_list (List.rev !sched) in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "telemetry-228 @ %d domains" domains in
      let ring' = Telemetry.Sink.ring ~capacity:100_000 in
      let sink' = Telemetry.Sink.of_ring ring' in
      let sys', sh =
        replay_concurrent tree ~domains ~sched ~specs ~sink:sink' ~marks:sink'
          ~trace:100_000
      in
      check_drained tag sh;
      let events =
        Telemetry.Sink.ring_events ring' @ Simul.Sharded.fleet_events sh
      in
      Alcotest.(check int) (tag ^ ": ring events") 228 (List.length events);
      Alcotest.(check int) (tag ^ ": none dropped") 0
        (Telemetry.Sink.ring_dropped ring' + Simul.Sharded.trace_dropped sh);
      let sent, delivered =
        List.fold_left
          (fun (s, d) e ->
            match e with
            | Telemetry.Sink.Sent _ -> (s + 1, d)
            | Telemetry.Sink.Delivered _ -> (s, d + 1)
            | _ -> (s, d))
          (0, 0) events
        in
      Alcotest.(check int) (tag ^ ": sent = total") (Simul.Sharded.total sh) sent;
      Alcotest.(check int) (tag ^ ": delivered = sent") sent delivered;
      ignore sys')
    domain_counts

(* ------------------------------------------------------------------ *)
(* Free-running determinism: the windowed engine's schedule is a pure
   function of (partition, requests), so two fresh systems produce
   byte-identical traffic and state — at every domain count.           *)

let open_workload sys n ~n_requests =
  let rng = Sm.create 31337 in
  Array.init n_requests (fun i ->
      let node = Sm.int rng n in
      let window = i / 8 in
      if Sm.bool rng then (window, node, fun () -> M.write sys ~node (float_of_int i))
      else (window, node, fun () -> M.combine sys ~node (fun _ -> ())))

let open_run tree ~domains =
  let n = Tree.n_nodes tree in
  let sys, sh = mk_sharded ~ghost:true tree ~domains in
  Simul.Sharded.run_open sh ~requests:(open_workload sys n ~n_requests:160);
  check_drained (Printf.sprintf "open @ %d domains" domains) sh;
  let logs = Array.init n (fun u -> M.log sys u) in
  let verdict =
    List.length
      (Consistency.Causal.check
         (module Agg.Ops.Sum : Agg.Operator.S with type t = float)
         ~n_nodes:n ~logs)
  in
  ( Simul.Sharded.total sh,
    kind_counts_net (Simul.Sharded.total_of_kind sh),
    final_state sys n,
    Simul.Sharded.windows sh,
    verdict )

let test_open_deterministic () =
  let tree = Tree.Build.binary 31 in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "open-loop @ %d domains" domains in
      let t1, k1, s1, w1, v1 = open_run tree ~domains in
      let t2, k2, s2, w2, v2 = open_run tree ~domains in
      Alcotest.(check int) (tag ^ ": total stable") t1 t2;
      Alcotest.(check bool) (tag ^ ": kinds stable") true (k1 = k2);
      Alcotest.(check bool) (tag ^ ": state stable") true (s1 = s2);
      Alcotest.(check int) (tag ^ ": windows stable") w1 w2;
      Alcotest.(check int) (tag ^ ": causally consistent") 0 v1;
      Alcotest.(check int) (tag ^ ": verdict stable") v1 v2)
    domain_counts

(* The open-loop schedule itself, pinned per domain count on the naive
   partition (whatever OAT_PARTITION says): total / windows / stalls /
   crossings / parallel_work (total, critical).  A change to the window
   skip rule or to the initiation order moves these numbers even when
   two runs still agree with each other. *)
let open_pins =
  [
    (1, "1197 / 20 / 0 / 0 / (1357, 1357)");
    (2, "953 / 21 / 1 / 95 / (1208, 752)");
    (4, "922 / 25 / 11 / 241 / (1323, 604)");
    (8, "920 / 27 / 42 / 550 / (1630, 471)");
  ]

let test_open_pinned () =
  let tree = Tree.Build.binary 31 in
  List.iter
    (fun domains ->
      match List.assoc_opt domains open_pins with
      | None -> ()
      | Some want ->
        let sys, sh = mk_sharded ~strategy:"naive" tree ~domains in
        Simul.Sharded.run_open sh
          ~requests:(open_workload sys 31 ~n_requests:160);
        let tag = Printf.sprintf "open-loop pinned @ %d domains" domains in
        check_drained tag sh;
        let work, crit = Simul.Sharded.parallel_work sh in
        Alcotest.(check string) tag want
          (Printf.sprintf "%d / %d / %d / %d / (%d, %d)"
             (Simul.Sharded.total sh) (Simul.Sharded.windows sh)
             (Simul.Sharded.stalls sh) (Simul.Sharded.crossings sh) work crit))
    domain_counts

(* The trace path the CLI uses: the pinned config again, with a
   [~trace] ring per shard.  Tracing must not move the schedule, and the
   merged trace must account for every message and every executed
   window. *)
let test_open_traced () =
  let tree = Tree.Build.binary 31 in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "open-loop traced @ %d domains" domains in
      let sys, sh =
        mk_sharded ~strategy:"naive" ~trace:100_000 tree ~domains
      in
      Simul.Sharded.run_open sh ~requests:(open_workload sys 31 ~n_requests:160);
      check_drained tag sh;
      let work, crit = Simul.Sharded.parallel_work sh in
      Alcotest.(check string) (tag ^ ": untraced pins")
        (List.assoc domains open_pins)
        (Printf.sprintf "%d / %d / %d / %d / (%d, %d)"
           (Simul.Sharded.total sh) (Simul.Sharded.windows sh)
           (Simul.Sharded.stalls sh) (Simul.Sharded.crossings sh) work crit);
      Alcotest.(check int) (tag ^ ": none dropped") 0
        (Simul.Sharded.trace_dropped sh);
      let events = Simul.Sharded.fleet_events sh in
      let count p = List.length (List.filter p events) in
      Alcotest.(check int) (tag ^ ": one Sent per message")
        (Simul.Sharded.total sh)
        (count (function Telemetry.Sink.Sent _ -> true | _ -> false));
      Alcotest.(check int) (tag ^ ": one Delivered per delivery")
        (Simul.Sharded.delivered sh)
        (count (function Telemetry.Sink.Delivered _ -> true | _ -> false));
      let spans ~shard ~name =
        ( count (function
            | Telemetry.Sink.Span_begin b -> b.shard = shard && b.name = name
            | _ -> false),
          count (function
            | Telemetry.Sink.Span_end e -> e.shard = shard && e.name = name
            | _ -> false) )
      in
      let windows = Simul.Sharded.windows sh in
      for s = 0 to domains - 1 do
        List.iter
          (fun name ->
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s: shard %d %s spans" tag s name)
              (windows, windows) (spans ~shard:s ~name))
          [ "ingress"; "drain" ]
      done;
      Alcotest.(check (pair int int)) (tag ^ ": decision spans")
        (windows, windows)
        (spans ~shard:0 ~name:"decision");
      let open Test_telemetry in
      let entries =
        match parse_json (Simul.Sharded.fleet_trace sh) with
        | exception Bad_json msg -> Alcotest.fail ("bad JSON: " ^ msg)
        | j -> (
          match member "traceEvents" j with
          | Some (Jarr l) -> l
          | _ -> Alcotest.fail "missing traceEvents array")
      in
      let pids =
        List.filter_map
          (fun e ->
            match (member "name" e, member "pid" e) with
            | Some (Jstr "process_name"), Some (Jnum p) -> Some (int_of_float p)
            | _ -> None)
          entries
      in
      Alcotest.(check (list int)) (tag ^ ": one process per shard")
        (List.init domains Fun.id) pids;
      List.iter
        (fun e ->
          match member "pid" e with
          | Some (Jnum p) when p >= 0. && p < float_of_int domains -> ()
          | _ -> Alcotest.fail (tag ^ ": entry outside the shard processes"))
        entries)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* QCheck: partitioner soundness on random trees.                      *)

let prop_partition =
  QCheck.Test.make ~name:"partition: cover once, cut exact, reassembly"
    ~count:120
    QCheck.(
      triple (int_bound 1_000_000) (int_range 1 48) (int_range 1 12))
    (fun (seed, n, k) ->
      let rng = Sm.create seed in
      let tree = Tree.Build.random rng n in
      let p = Tree.Partition.create tree ~shards:k in
      Tree.Partition.check tree p;
      let kk = Tree.Partition.k p in
      if kk <> min k n then QCheck.Test.fail_reportf "k=%d, want %d" kk (min k n);
      (* every node owned exactly once *)
      let seen = Array.make n 0 in
      for s = 0 to kk - 1 do
        Array.iter (fun u -> seen.(u) <- seen.(u) + 1) (Tree.Partition.owned p s)
      done;
      Array.iteri
        (fun u c -> if c <> 1 then QCheck.Test.fail_reportf "node %d owned %d times" u c)
        seen;
      (* each edge: intra-shard, or on the cut exactly once *)
      let cut = Tree.Partition.cut_edges p in
      let module ES = Set.Make (struct
        type t = int * int

        let compare = compare
      end) in
      let cutset = ES.of_list cut in
      if ES.cardinal cutset <> List.length cut then
        QCheck.Test.fail_reportf "duplicate cut edges";
      List.iter
        (fun (u, v) ->
          let cross =
            Tree.Partition.shard_of p u <> Tree.Partition.shard_of p v
          in
          let key = (min u v, max u v) in
          if cross <> ES.mem key cutset then
            QCheck.Test.fail_reportf "edge (%d,%d): cross=%b cut=%b" u v cross
              (ES.mem key cutset))
        (Tree.edges tree);
      (* reassembly: intra-shard adjacency + cut adjacency = full adjacency *)
      let rebuilt = Array.make n [] in
      List.iter
        (fun (u, v) ->
          rebuilt.(u) <- v :: rebuilt.(u);
          rebuilt.(v) <- u :: rebuilt.(v))
        cut;
      for u = 0 to n - 1 do
        Tree.iter_neighbors tree u (fun v ->
            if Tree.Partition.shard_of p u = Tree.Partition.shard_of p v then
              rebuilt.(u) <- v :: rebuilt.(u))
      done;
      for u = 0 to n - 1 do
        let got = List.sort_uniq compare rebuilt.(u) in
        let want = Array.to_list (Tree.neighbors_arr tree u) in
        if got <> want then QCheck.Test.fail_reportf "node %d adjacency mismatch" u
      done;
      true)

let prop_partition_weighted =
  QCheck.Test.make
    ~name:"partition: weighted is sound and never worse than naive" ~count:120
    QCheck.(
      triple (int_bound 1_000_000) (int_range 1 48) (int_range 1 12))
    (fun (seed, n, k) ->
      let rng = Sm.create seed in
      let tree = Tree.Build.random rng n in
      let weights = Array.init n (fun u -> 1 + ((u * 7919) mod 97)) in
      let p = Tree.Partition.create_weighted tree ~shards:k ~weights in
      Tree.Partition.check tree p;
      if Tree.Partition.strategy p <> "weighted" then
        QCheck.Test.fail_reportf "strategy %S" (Tree.Partition.strategy p);
      let loads = Tree.Partition.loads p in
      let total = Array.fold_left ( + ) 0 weights in
      if Array.fold_left ( + ) 0 loads <> total then
        QCheck.Test.fail_reportf "loads don't sum to total weight";
      (* the weighted split optimises the bottleneck over contiguous
         post-order ranges; the naive equal-count split is one such
         range assignment, so weighted can never have a worse
         bottleneck under the same weights *)
      let naive = Tree.Partition.create tree ~shards:k in
      let bottleneck part =
        let m = ref 0 in
        for s = 0 to Tree.Partition.k part - 1 do
          let l =
            Array.fold_left
              (fun acc u -> acc + weights.(u))
              0 (Tree.Partition.owned part s)
          in
          if l > !m then m := l
        done;
        !m
      in
      let wb = bottleneck p and nb = bottleneck naive in
      if wb > nb then
        QCheck.Test.fail_reportf "weighted bottleneck %d > naive %d" wb nb;
      true)

(* ------------------------------------------------------------------ *)
(* Partitioner edge cases: clamps and validation.                      *)

let test_partition_edge_cases () =
  (* single-node tree: every shard count clamps to one shard owning
     the single node *)
  let one = Tree.Build.path 1 in
  List.iter
    (fun shards ->
      let p = Tree.Partition.create one ~shards in
      Tree.Partition.check one p;
      Alcotest.(check int) "single node: k" 1 (Tree.Partition.k p);
      Alcotest.(check int) "single node: owner" 0 (Tree.Partition.shard_of p 0);
      let pw =
        Tree.Partition.create_weighted one ~shards ~weights:[| 5 |]
      in
      Alcotest.(check int) "single node weighted: k" 1 (Tree.Partition.k pw))
    [ 1; 2; 8 ];
  (* more shards than nodes: clamp to n, every shard non-empty *)
  let t5 = Tree.Build.path 5 in
  List.iter
    (fun mk ->
      let p = mk t5 in
      Tree.Partition.check t5 p;
      Alcotest.(check int) "shards clamp to n" 5 (Tree.Partition.k p);
      for s = 0 to 4 do
        Alcotest.(check int)
          (Printf.sprintf "shard %d singleton" s)
          1
          (Array.length (Tree.Partition.owned p s))
      done)
    [
      (fun t -> Tree.Partition.create t ~shards:9);
      (fun t ->
        Tree.Partition.create_weighted t ~shards:9
          ~weights:(Tree.Partition.subtree_weights t));
    ];
  (* invalid arguments *)
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool)
    "shards < 1 rejected" true
    (raises (fun () -> Tree.Partition.create t5 ~shards:0));
  Alcotest.(check bool)
    "weighted shards < 1 rejected" true
    (raises (fun () ->
         Tree.Partition.create_weighted t5 ~shards:0 ~weights:(Array.make 5 1)));
  Alcotest.(check bool)
    "weights length mismatch rejected" true
    (raises (fun () ->
         Tree.Partition.create_weighted t5 ~shards:2 ~weights:(Array.make 4 1)));
  Alcotest.(check bool)
    "negative weight rejected" true
    (raises (fun () ->
         Tree.Partition.create_weighted t5 ~shards:2
           ~weights:[| 1; 1; -1; 1; 1 |]));
  (* subtree weights on a rooted path: node u's subtree is u..n-1 *)
  let w = Tree.Partition.subtree_weights t5 in
  Alcotest.(check (array int)) "path subtree weights" [| 5; 4; 3; 2; 1 |] w;
  (* zero weights everywhere still yields a valid partition *)
  let pz = Tree.Partition.create_weighted t5 ~shards:3 ~weights:(Array.make 5 0) in
  Tree.Partition.check t5 pz;
  Alcotest.(check (float 1e-9)) "zero-weight balance" 1.0
    (Tree.Partition.balance_ratio pz)

(* ------------------------------------------------------------------ *)
(* Frame pools and mailboxes.  Frame pools are shard-local by design
   (not thread-safe); the sharded engine's discipline is that a pool is
   only ever touched by its owning domain and frames cross shards by
   mailbox byte-copy.                                                  *)

let test_multicore_pool_stress () =
  (* one private pool per domain, hammered concurrently *)
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let pool =
              Simul.Frame.create_pool ~name:(Printf.sprintf "stress%d" d) ()
            in
            let rng = Sm.create (1000 + d) in
            let live = ref [] in
            for _ = 1 to 20_000 do
              if Sm.bool rng && !live <> [] then begin
                match !live with
                | f :: rest ->
                  Simul.Frame.release f;
                  live := rest
                | [] -> ()
              end
              else begin
                let f = Simul.Frame.alloc pool in
                Simul.Frame.set_length f (18 + Sm.int rng 64);
                live := f :: !live
              end
            done;
            List.iter Simul.Frame.release !live;
            Simul.Frame.check_pool pool;
            Simul.Frame.live pool))
  in
  Array.iter
    (fun d -> Alcotest.(check int) "domain pool drained" 0 (Domain.join d))
    domains

(* One mailbox's two parity regions, driven from one domain (the
   differential goldens and the open-loop runs cover the handover
   across domains).  A drain of one parity returns exactly the entries
   appended at it, in append order and byte for byte, and leaves the
   other parity's entries in place. *)
let test_mailbox_parity_regions () =
  let module F = Simul.Frame in
  let module Mb = Simul.Mailbox in
  let sender = F.create_pool ~name:"sender" ()
  and receiver = F.create_pool ~name:"receiver" () in
  let box = Mb.create () in
  (* entry i: parity i land 1, a payload of i bytes of value i past the
     header; entry 5 alone outgrows a region's initial 4096 bytes *)
  let len i = if i = 5 then 5000 else 3 * i in
  let images =
    Array.init 8 (fun i ->
        let f = F.alloc sender in
        F.set_kind f (i mod 5);
        F.set_seq f (1000 + i);
        F.set_length f (F.header_size + len i);
        Bytes.fill (F.buf f) F.header_size (len i) (Char.chr i);
        Mb.append box ~parity:(i land 1) ~src:i ~dst:(100 + i) f;
        let image = Bytes.sub (F.buf f) 0 (F.length f) in
        F.release f;
        (i, 100 + i, image))
  in
  let counts tag ~length ~pushed ~hwm =
    Alcotest.(check (list int))
      (tag ^ ": length, pushed, hwm")
      [ length; pushed; hwm ]
      [ Mb.length box; Mb.pushed box; Mb.hwm box ]
  in
  counts "appended" ~length:8 ~pushed:8 ~hwm:4;
  let drain parity =
    let got = ref [] in
    let n =
      Mb.drain box ~parity ~pool:receiver (fun ~src ~dst f ->
          Alcotest.(check bool) "rebuilt in the receiver's pool" true
            (F.pool_of f == receiver);
          got := (src, dst, Bytes.sub (F.buf f) 0 (F.length f)) :: !got;
          F.release f)
    in
    Alcotest.(check int) "drain count" (List.length !got) n;
    List.rev !got
  in
  let entries parity =
    List.filter (fun (i, _, _) -> i land 1 = parity) (Array.to_list images)
  in
  let image = Alcotest.(triple int int bytes) in
  Alcotest.(check (list image)) "parity 1: its entries in order" (entries 1)
    (drain 1);
  counts "parity 0 left in place" ~length:4 ~pushed:8 ~hwm:4;
  Alcotest.(check (list image)) "parity 1 drained empty" [] (drain 1);
  Alcotest.(check (list image)) "parity 0: its entries in order" (entries 0)
    (drain 0);
  counts "both drained" ~length:0 ~pushed:8 ~hwm:4;
  (* a drained region is reused from its start *)
  let f = F.alloc sender in
  F.set_length f (F.header_size + 2);
  Mb.append box ~parity:1 ~src:7 ~dst:9 f;
  let again = (7, 9, Bytes.sub (F.buf f) 0 (F.length f)) in
  F.release f;
  counts "reused" ~length:1 ~pushed:9 ~hwm:4;
  Alcotest.(check (list image)) "reused region" [ again ] (drain 1);
  List.iter
    (fun pool ->
      F.check_pool pool;
      Alcotest.(check int) "pool drained" 0 (F.live pool))
    [ sender; receiver ]

let test_pool_crossing_detected () =
  (* the always-on assertion fires when a frame from one shard's pool
     is routed as if sent by another shard's node *)
  let tree = Tree.Build.path 8 in
  let part = Tree.Partition.create tree ~shards:2 in
  let sh =
    Simul.Sharded.create tree ~partition:part
      ~handler:(fun ~src:_ ~dst:_ f -> Simul.Frame.release f)
  in
  (* nodes 0 and 7 land in different halves of the post-order split *)
  let wrong_pool = Simul.Sharded.pool_for sh 7 in
  Alcotest.(check bool)
    "test picks two shards" true
    (wrong_pool != Simul.Sharded.pool_for sh 0);
  let raised =
    try
      let f = Simul.Frame.alloc wrong_pool in
      Simul.Frame.set_kind f 0;
      Simul.Sharded.route sh ~src:0 ~dst:1 f;
      false
    with Failure msg -> String.starts_with ~prefix:"Sharded.route:" msg
  in
  Alcotest.(check bool) "crossed pool rejected" true raised

let suite =
  [
    Alcotest.test_case "differential: sequential goldens (1557/574/974)" `Quick
      test_differential_sequential;
    Alcotest.test_case "differential: sequential goldens, weighted partition"
      `Quick test_differential_sequential_weighted;
    Alcotest.test_case "per-edge costs at every domain count (Lemma 4.5)"
      `Quick test_sharded_per_edge_costs;
    Alcotest.test_case "differential: concurrent golden 438 by replay" `Quick
      test_differential_concurrent_438;
    Alcotest.test_case "differential: concurrent golden 1171 by replay" `Quick
      test_differential_concurrent_1171;
    Alcotest.test_case "differential: telemetry golden 228 by replay" `Quick
      test_differential_telemetry_228;
    Alcotest.test_case "open-loop windows: deterministic and causal" `Quick
      test_open_deterministic;
    Alcotest.test_case "open-loop schedule pinned per domain count" `Quick
      test_open_pinned;
    Alcotest.test_case "open-loop traced: pins, census, spans" `Quick
      test_open_traced;
    QCheck_alcotest.to_alcotest prop_partition;
    QCheck_alcotest.to_alcotest prop_partition_weighted;
    Alcotest.test_case "partition edge cases (clamps, validation)" `Quick
      test_partition_edge_cases;
    Alcotest.test_case "multicore pool stress (shard-local)" `Quick
      test_multicore_pool_stress;
    Alcotest.test_case "mailbox parity regions" `Quick
      test_mailbox_parity_regions;
    Alcotest.test_case "pool-crossing assertion" `Quick
      test_pool_crossing_detected;
  ]
