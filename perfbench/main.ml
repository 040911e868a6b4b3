(* End-to-end and per-layer benchmark for both engines: rww-seq,
   rww-open-2d and monitor-2d.  NOTES.md says why each workload exists,
   which noise sources the design avoids and what every metric means.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--size full|small] [--inject-fault]

   A run is a number of rounds, each in a fresh process of this
   program (started with --round KIND).  A round builds a fresh system
   (timed as one set-up sample, warm-up prefix included) and drives
   the same fixed slice of the seeded request stream through it, cut
   into equal segments; [report] turns the per-segment throughput and
   the combine latencies into one value each.  On rww-seq every time
   is reported at the host's reference speed, measured by the kernel
   in calib.ml next to each segment.
   With --trace 1 the rounds alternate between plain and traced (and,
   on monitor-2d, telemetry-off) ones, and the per-layer metrics come
   from the traced rounds.  The last stdout line is the JSON result. *)

module M = Oat.Mechanism.Make (Agg.Ops.Sum_int)
module Feed = Workload.Feed
module Sh = Simul.Sharded
module Part = Tree.Partition

let now = Spans.now

type spec = {
  name : string;
  nodes : int; (* binary tree size *)
  shards : int; (* 1: single-domain engine, closed loop *)
  lease_all : bool;
      (* lease-all policy after one root combine_sync, combines at the
         root, latency recorder and series sampler on; else RWW *)
  reads : float; (* combine share of the stream *)
  skew : float; (* Zipf exponent of the node draw; 0 = uniform *)
  batch : int; (* requests per window (sharded) *)
  warmup : int; (* untimed prefix, part of set-up *)
  timed : int; (* timed requests per round *)
  segs : int; (* equal segments per round *)
  per_combine : bool;
      (* a combine's latency is its own work (closed loop, or a local
         read), so latency is kept per combine; else only per segment *)
}

let specs =
  [
    {
      name = "rww-seq";
      nodes = 1023;
      shards = 1;
      lease_all = false;
      reads = 0.5;
      skew = 0.9;
      batch = 1;
      warmup = 40_000;
      timed = 400_000;
      segs = 32;
      per_combine = false;
    };
    {
      name = "rww-open-2d";
      nodes = 1023;
      shards = 2;
      lease_all = false;
      reads = 0.5;
      skew = 0.9;
      batch = 64;
      warmup = 40_960;
      timed = 327_680;
      segs = 8;
      per_combine = false;
    };
    {
      name = "monitor-2d";
      nodes = 16383;
      shards = 2;
      lease_all = true;
      reads = 1. /. 16.;
      skew = 0.;
      batch = 4096;
      warmup = 32_768;
      timed = 196_608;
      segs = 8;
      per_combine = true;
    };
  ]

(* The benchmark's own test: every code path, a few seconds in all. *)
let small s = { s with warmup = s.warmup / 16; timed = s.timed / 16; segs = 2 }

type kind = Plain | Traced | Bare (* Bare: recorder and sampler off *)

type round = {
  kind : kind;
  setup : float; (* s *)
  raw_setup : float; (* the same before the speed correction (finding 8) *)
  speed : float; (* rww-seq: reference kernel's time after set-up, ns; else nan *)
  rates : float array; (* req/s per segment *)
  raw_rates : float array;
  p50 : float array; (* us per segment *)
  p99 : float array;
  lat : Bytes.t array;
      (* per domain, where [per_combine]: the latency of every timed
         combine it issued, in issue order (see [lat_set]) *)
  seg_start : int array array;
      (* per domain: index in [lat] of each segment's first combine,
         then the count *)
  samples : int; (* fewest combines in one segment *)
  rss_mb : float; (* the round's peak resident set *)
  reqs : int; (* requests in the timed phase *)
  msgs : int;
  attempted : int;
  failed : int;
  layer : (string * float) list; (* traced rounds only *)
  spans : Spans.t;
}

(* Per-shard counters, one padded block per shard so that two domains
   never write the same cache line. *)
let cpad = 16
let c_issued = 0 (* combines issued *)
let c_done = 1 (* combines completed *)
let c_local = 2 (* completed inside the combine call: zero deliveries *)
let c_bad = 3 (* completions with no issued combine *)
let c_grants = 4
let c_breaks = 5
let c_seg = 6 (* segment of the requests being issued *)
let c_busy = 7 (* inside Mechanism.combine *)
let c_logged = 8 (* timed combines issued: the next index in the latency log *)
let c_logseg = 9 (* segment of the last logged combine *)

(* Policy hooks counted by wrapping the factory: a grant is a
   [set_lease] answering true, a break a [break_lease] answering true.
   Hooks run on the domain owning the node. *)
let counting (base : Oat.Policy.factory) ~shard_of ctr : Oat.Policy.factory =
 fun ~node_id ~nbrs ->
  let p = base ~node_id ~nbrs in
  let g = (shard_of node_id * cpad) + c_grants in
  let b = (shard_of node_id * cpad) + c_breaks in
  {
    p with
    set_lease =
      (fun v ~target ->
        let r = p.set_lease v ~target in
        if r then ctr.(g) <- ctr.(g) + 1;
        r);
    break_lease =
      (fun v ~target ->
        let r = p.break_lease v ~target in
        if r then ctr.(b) <- ctr.(b) + 1;
        r);
  }

let base_policy spec =
  if spec.lease_all then Oat.Policy.noop ~name:"lease-all" ~set_lease:true
  else Oat.Rww.policy

let kinds = Simul.Kind.[ Probe; Response; Update; Release ]

let per x n = if n = 0 then 0. else float_of_int x /. float_of_int n
let median_int a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  a.(Array.length a / 2)
let sntupdates sys n =
  let s = ref 0 in
  for u = 0 to n - 1 do
    s := !s + M.sntupdates_length sys u
  done;
  !s

let majors () = (Gc.quick_stat ()).Gc.major_collections

(* The per-layer figures both engines share.  [by_kind] holds the
   timed phase's message counts in the order of [kinds]. *)
let mechanism_layer sp ~reqs ~local ~combines ~by_kind ~sntupdates ~grants ~breaks =
  [
    ("feed.ns_per_req", per (Spans.self_ns sp Spans.feed) reqs);
    ("mechanism.initiate_ns_per_req", per (Spans.self_ns sp Spans.initiate) reqs);
    ("mechanism.local_combine_frac", per local combines);
    ( "mechanism.handler_ns_per_msg",
      per (Spans.self_ns sp Spans.handler) (Spans.count sp Spans.handler) );
  ]
  @ List.map2
      (fun k c -> ("mechanism." ^ Simul.Kind.to_string k ^ "_per_req", per c reqs))
      kinds by_kind
  @ [
      ("mechanism.sntupdates_len", float_of_int sntupdates);
      ("policy.lease_grants_per_req", per grants reqs);
      ("policy.lease_breaks_per_req", per breaks reqs);
    ]

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* A latency log holds 4 bytes per combine: ns, clamped at 4.3 s,
   written as two 16-bit halves so that recording never allocates. *)
let lat_max = 0xffff_ffff
let lat_log n = Bytes.create (4 * n)

let lat_set b i v =
  let v = Int.min v lat_max in
  Bytes.set_uint16_le b (4 * i) (v land 0xffff);
  Bytes.set_uint16_le b ((4 * i) + 2) (v lsr 16)

let lat_get b i = Bytes.get_uint16_le b (4 * i) lor (Bytes.get_uint16_le b ((4 * i) + 2) lsl 16)

(* Quantiles of one segment's combine latencies, in us. *)
let quantiles_us h = (Hist.quantile h 0.5 /. 1e3, Hist.quantile h 0.99 /. 1e3)

(* ------------------------------------------------------------------ *)
(* rww-seq: single domain, closed loop.  Each request is driven to
   quiescence before the next starts (the paper's sequential
   executions), so every combine must return the exact current sum
   (Lemma 3.12). *)

let seq_round spec ~seed ~kind ~fault =
  let traced = kind = Traced in
  let n = spec.nodes in
  let t_start = now () in
  let tree = Tree.Build.binary n in
  let ctr = Array.make cpad 0 in
  let policy =
    if traced then counting (base_policy spec) ~shard_of:(fun _ -> 0) ctr
    else base_policy spec
  in
  let sys = M.create tree ~policy in
  let net = M.network sys in
  let feed =
    Feed.create ~read_fraction:spec.reads ~skew:spec.skew ~seed
      ~length:(spec.warmup + spec.timed) ~n_nodes:n ()
  in
  let sp = Spans.create 1 in
  let d = sp.(0) in
  let vals = Array.make n 0 and sum = ref 0 in
  (* The current segment's combine latencies. *)
  let h = Hist.create () in
  let timing = ref false in
  let issued_at = ref 0 and took = ref 0 and fired = ref false and bad = ref 0 in
  let kont v =
    took := now () - !issued_at;
    fired := true;
    if v <> !sum then incr bad
  in
  let handler =
    if traced then fun ~src ~dst f ->
      Spans.enter d;
      M.handler sys ~src ~dst f;
      Spans.leave d Spans.handler
    else M.handler sys
  in
  let rec drain_traced () =
    Spans.enter d;
    let more = Simul.Network.deliver_any net ~handler in
    Spans.leave d Spans.deliver;
    if more then drain_traced ()
  in
  let combines = ref 0 and local = ref 0 in
  let request () =
    if traced then begin
      Spans.enter d;
      ignore (Feed.advance feed);
      Spans.leave d Spans.feed;
      Spans.set_req d (Feed.index feed)
    end
    else ignore (Feed.advance feed);
    let node = Feed.node feed in
    let write = Feed.is_write feed in
    if traced then Spans.enter d;
    if write then begin
      let v = Feed.value feed in
      sum := !sum + v - vals.(node);
      vals.(node) <- v;
      M.write sys ~node v
    end
    else begin
      incr combines;
      fired := false;
      issued_at := now ();
      M.combine sys ~node kont;
      if !fired then incr local
    end;
    if traced then begin
      Spans.leave d Spans.initiate;
      drain_traced ()
    end
    else ignore (Simul.Engine.run_to_quiescence net ~handler);
    if not write then begin
      if not !fired then incr bad;
      if !timing then Hist.add h (if !fired then !took else lat_max)
    end
  in
  for _ = 1 to spec.warmup do
    request ()
  done;
  combines := 0;
  local := 0;
  bad := 0;
  Array.fill ctr 0 cpad 0;
  Spans.reset sp;
  (* A wrong model of the exact sum: every later check must fail. *)
  if fault then incr sum;
  let msgs0 = M.message_total sys in
  let kinds0 = List.map (M.messages_of_kind sys) kinds in
  let per_seg = spec.timed / spec.segs in
  let segs = spec.segs in
  let setup_ns = now () - t_start in
  (* Host speed (finding 8): the reference kernel's time right after
     set-up, then at every segment boundary.  A segment runs at the
     geometric mean of the speeds at its two ends. *)
  let speed_setup = median_int (Array.init 5 (fun _ -> Calib.run ())) in
  let minor0 = Gc.minor_words () and majors0 = majors () in
  let probe = Array.make (segs + 1) 0 and wall = Array.make segs 0 in
  let q = Array.make segs (0., 0.) and samples = ref max_int in
  timing := true;
  for s = 0 to segs - 1 do
    probe.(s) <- Calib.run ();
    let t0 = now () in
    for _ = 1 to per_seg do
      request ()
    done;
    wall.(s) <- now () - t0;
    q.(s) <- quantiles_us h;
    samples := min !samples (Hist.count h);
    Hist.clear h
  done;
  probe.(segs) <- Calib.run ();
  let scale = Array.init segs (fun s -> Calib.ref_ns /. sqrt (float_of_int (probe.(s) * probe.(s + 1)))) in
  let raw_rates = Array.map (fun w -> float_of_int per_seg /. (float_of_int w /. 1e9)) wall in
  let minor = Gc.minor_words () -. minor0 -. (float_of_int (segs + 1) *. Calib.words)
  and majors = majors () - majors0 in
  let reqs = per_seg * spec.segs in
  let msgs = M.message_total sys - msgs0 in
  let layer =
    if not traced then []
    else begin
      let pool = M.frame_pool sys in
      mechanism_layer sp ~reqs ~local:!local ~combines:!combines
        ~by_kind:(List.map2 (fun k k0 -> M.messages_of_kind sys k - k0) kinds kinds0)
        ~sntupdates:(sntupdates sys n) ~grants:ctr.(c_grants) ~breaks:ctr.(c_breaks)
      @ [
          ( "network.ns_per_msg",
            per (Spans.self_ns sp Spans.deliver) (Spans.count sp Spans.handler) );
          ("frame.pool_hwm", float_of_int (Simul.Frame.hwm pool));
          ("frame.created", float_of_int (Simul.Frame.created pool));
          ("gc.minor_words_per_req", minor /. float_of_int reqs);
          ("gc.major_collections", float_of_int majors);
        ]
    end
  in
  {
    kind;
    setup = float_of_int setup_ns *. Calib.ref_ns /. float_of_int speed_setup /. 1e9;
    raw_setup = float_of_int setup_ns /. 1e9;
    speed = float_of_int speed_setup;
    rates = Array.mapi (fun s r -> r /. scale.(s)) raw_rates;
    raw_rates;
    p50 = Array.mapi (fun s (p, _) -> p *. scale.(s)) q;
    p99 = Array.mapi (fun s (_, p) -> p *. scale.(s)) q;
    lat = [||];
    seg_start = [||];
    samples = !samples;
    rss_mb = peak_rss_mb ();
    reqs;
    msgs;
    attempted = reqs;
    failed = !bad;
    layer;
    spans = sp;
  }

(* ------------------------------------------------------------------ *)
(* rww-open-2d and monitor-2d: one long Sharded.run_feed per phase
   over a weighted 2-way partition; requests are due [batch] per
   window regardless of completions (open loop). *)

let npad = 8 (* ints per node: nodes owned by different shards never
                share a cache line *)

let sharded_round spec ~seed ~kind ~fault =
  let traced = kind = Traced in
  let telemetry = spec.lease_all && kind <> Bare in
  let n = spec.nodes and k = spec.shards and batch = spec.batch in
  let t_start = now () in
  let tree = Tree.Build.binary n in
  let part =
    Part.create_weighted tree ~shards:k ~weights:(Part.subtree_weights tree)
  in
  let shard_of = Array.init n (Part.shard_of part) in
  let ctr = Array.make (k * cpad) 0 in
  let policy =
    if traced then counting (base_policy spec) ~shard_of:(Array.get shard_of) ctr
    else base_policy spec
  in
  let sys = M.create tree ~policy in
  if spec.lease_all then ignore (M.combine_sync sys ~node:0);
  let sp = Spans.create k in
  let handler =
    if traced then fun ~src ~dst f ->
      let d = sp.(shard_of.(dst)) in
      Spans.enter d;
      M.handler sys ~src ~dst f;
      Spans.leave d Spans.handler
    else M.handler sys
  in
  let audit = Telemetry.Audit.create ~on_violation:ignore () in
  let latency, series =
    if telemetry then (Telemetry.Latency.create (), Telemetry.Series.create ())
    else (Telemetry.Latency.null, Telemetry.Series.null)
  in
  let sh = Sh.create tree ~partition:part ~latency ~series ~audit ~handler in
  let send =
    if traced then fun ~src ~dst f ->
      let d = sp.(shard_of.(src)) in
      Spans.enter d;
      Sh.route sh ~src ~dst f;
      Spans.leave d Spans.route
    else Sh.route sh
  in
  M.set_outbox sys ~send ~pool_for:(Sh.pool_for sh);
  (* Per node: latest written value, then the FIFO of its outstanding
     combines (head, length; storage in [q]).  An entry packs the issue
     time (36 bits), the index in the shard's latency log (20 bits) and
     the segment it was issued in (6 bits); a node's pending combines
     complete together, in issue order. *)
  let nst = Array.make (n * npad) 0 in
  let q = Array.make n [||] in
  let push u e =
    let b = u * npad in
    let len = nst.(b + 2) in
    if len = Array.length q.(u) then begin
      let old = q.(u) and h = nst.(b + 1) in
      let cap = max 4 (2 * len) in
      q.(u) <- Array.init cap (fun i -> if i < len then old.((h + i) land (len - 1)) else 0);
      nst.(b + 1) <- 0
    end;
    let a = q.(u) in
    a.((nst.(b + 1) + len) land (Array.length a - 1)) <- e;
    nst.(b + 2) <- len + 1
  in
  let segs = spec.segs in
  let hists = Array.init k (fun _ -> Array.init (segs + 1) (fun _ -> Hist.create ())) in
  (* Per domain, the latency of every timed combine it issues, by issue
     index: every shard re-derives the same stream and issues the
     combines of the nodes it owns, so a shard's i-th timed combine is
     the same request in every round. *)
  assert (spec.timed < 1 lsl 20);
  let logged = spec.per_combine in
  let lat = Array.init k (fun _ -> if logged then lat_log spec.timed else Bytes.empty) in
  let seg_start = Array.init k (fun _ -> Array.make (segs + 1) 0) in
  let base = now () in
  let complete u =
    let c = shard_of.(u) * cpad in
    ctr.(c + c_done) <- ctr.(c + c_done) + 1;
    if ctr.(c + c_busy) = 1 then ctr.(c + c_local) <- ctr.(c + c_local) + 1;
    let b = u * npad in
    let len = nst.(b + 2) in
    if len = 0 then ctr.(c + c_bad) <- ctr.(c + c_bad) + 1
    else begin
      let a = q.(u) and h = nst.(b + 1) in
      let e = a.(h) in
      nst.(b + 1) <- (h + 1) land (Array.length a - 1);
      nst.(b + 2) <- len - 1;
      let took = now () - base - (e lsr 26) and sg = e land 63 in
      Hist.add hists.(shard_of.(u)).(sg) took;
      if logged && sg < segs then lat_set lat.(shard_of.(u)) ((e lsr 6) land 0xfffff) took
    end
  in
  let konts = Array.init n (fun u _ -> complete u) in
  let apply s c =
    let write = Feed.is_write c in
    let node = if spec.lease_all && not write then 0 else Feed.node c in
    if shard_of.(node) <> s then false
    else begin
      let d = sp.(s) in
      if traced then Spans.enter d;
      if write then begin
        let v = Feed.value c in
        nst.(node * npad) <- v;
        M.write sys ~node v
      end
      else begin
        let cs = s * cpad in
        ctr.(cs + c_issued) <- ctr.(cs + c_issued) + 1;
        let sg = ctr.(cs + c_seg) in
        let i = ctr.(cs + c_logged) in
        if logged && sg < segs then begin
          while ctr.(cs + c_logseg) < sg do
            ctr.(cs + c_logseg) <- ctr.(cs + c_logseg) + 1;
            seg_start.(s).(ctr.(cs + c_logseg)) <- i
          done;
          lat_set lat.(s) i lat_max (* until it completes *);
          ctr.(cs + c_logged) <- i + 1
        end;
        push node (((now () - base) lsl 26) lor ((i land 0xfffff) lsl 6) lor sg);
        ctr.(cs + c_busy) <- 1;
        M.combine sys ~node konts.(node);
        ctr.(cs + c_busy) <- 0
      end;
      if traced then Spans.leave d Spans.initiate;
      true
    end
  in
  let length = spec.warmup + spec.timed + (2 * batch) in
  let feed =
    Feed.create ~read_fraction:spec.reads ~skew:spec.skew ~seed ~length ~n_nodes:n ()
  in
  (* One run_feed over requests [lo, hi); window w holds requests
     lo + w*batch .. lo + (w+1)*batch - 1.  Every shard re-derives the
     whole slice from its own cursor and initiates the requests it
     owns.  [on_window] runs first in every pull. *)
  let run_phase ~lo ~hi ~on_window =
    let cur =
      Array.init k (fun _ ->
          let c = Feed.clone feed in
          Feed.reset c;
          for _ = 0 to lo do
            ignore (Feed.advance c)
          done;
          c)
    in
    let primed = Array.make k (hi > lo) in
    let pull ~shard ~window =
      let d = sp.(shard) in
      if traced then begin
        Spans.set_req d window;
        Spans.enter d
      end;
      on_window shard window;
      let c = cur.(shard) in
      let issued = ref 0 in
      while primed.(shard) && (Feed.index c - lo) / batch <= window do
        if apply shard c then incr issued;
        primed.(shard) <- Feed.index c + 1 < hi && Feed.advance c
      done;
      if traced then Spans.leave d Spans.feed;
      !issued
    in
    let next_window ~shard =
      if primed.(shard) then (Feed.index cur.(shard) - lo) / batch else max_int
    in
    Sh.run_feed sh ~pull ~next_window
  in
  let set_seg s v = ctr.((s * cpad) + c_seg) <- v in
  run_phase ~lo:0 ~hi:spec.warmup ~on_window:(fun s _ -> set_seg s segs);
  Array.fill ctr 0 (Array.length ctr) 0;
  Spans.reset sp;
  Telemetry.Latency.reset latency;
  (* Segment s spans windows [s*wseg, (s+1)*wseg); shard 0 stamps each
     boundary as it pulls the boundary window.  The two-window tail
     after the last segment makes sure the closing boundary runs. *)
  let wseg = spec.timed / segs / batch in
  let bounds = Array.make (segs + 1) 0 and next_b = ref 0 in
  let on_window s w =
    if s = 0 && !next_b <= segs && w >= !next_b * wseg then begin
      bounds.(!next_b) <- now ();
      incr next_b
    end;
    set_seg s (min segs (w / wseg))
  in
  let total0 = Sh.total sh and kinds0 = List.map (Sh.total_of_kind sh) kinds in
  let win0 = Sh.windows sh and stalls0 = Sh.stalls sh and cross0 = Sh.crossings sh in
  let work0, crit0 = Sh.parallel_work sh in
  let deliv0 = Array.init k (Sh.deliveries_of sh) in
  let gc_words () = Array.fold_left (fun a (w, _) -> a +. w) 0. (Sh.gc_stats sh) in
  let minor0 = gc_words () and majors0 = majors () in
  let checks0 = Telemetry.Audit.checks audit in
  let exact () =
    let s = ref 0 in
    for u = 0 to n - 1 do
      s := !s + nst.(u * npad)
    done;
    !s
  in
  let t0 = now () in
  run_phase ~lo:spec.warmup ~hi:length ~on_window;
  let wall = now () - t0 in
  let reqs = length - spec.warmup in
  let msgs = Sh.total sh - total0 in
  let minor = gc_words () -. minor0 and majors = majors () - majors0 in
  let total c = Array.fold_left (fun a s -> a + ctr.((s * cpad) + c)) 0 (Array.init k Fun.id) in
  let issued = total c_issued in
  (* End-of-run checks: the aggregate is exact, the conservation
     ledgers balanced, no frame leaked. *)
  let expected = exact () + if fault then 1 else 0 in
  let answer =
    if spec.lease_all then M.gval sys 0
    else begin
      (* one more combine after the drain, at a leaf across the cut *)
      let got = ref min_int and u = n - 1 in
      Sh.run_open sh ~requests:[| (0, u, fun () -> M.combine sys ~node:u (fun v -> got := v)) |];
      !got
    end
  in
  let end_checks =
    [ answer = expected; Telemetry.Audit.violations audit = 0; Sh.live_frames sh = 0 ]
  in
  (* every issued combine must complete exactly once *)
  let failed =
    abs (issued - total c_done) + total c_bad
    + List.length (List.filter not end_checks)
  in
  let rates =
    Array.init segs (fun s ->
        float_of_int (wseg * batch) /. (float_of_int (bounds.(s + 1) - bounds.(s)) /. 1e9))
  in
  let merged = Hist.create () and samples = ref max_int in
  let q =
    Array.init segs (fun s ->
        Hist.clear merged;
        Array.iter (fun h -> Hist.merge ~dst:merged h.(s)) hists;
        samples := min !samples (Hist.count merged);
        quantiles_us merged)
  in
  for s = 0 to k - 1 do
    let cs = s * cpad in
    for sg = ctr.(cs + c_logseg) + 1 to segs do
      seg_start.(s).(sg) <- ctr.(cs + c_logged)
    done
  done;
  let layer =
    if not traced then []
    else begin
      let windows = Sh.windows sh - win0 in
      let work, crit = Sh.parallel_work sh in
      let deliv = Array.init k (fun s -> Sh.deliveries_of sh s - deliv0.(s)) in
      let dmax = Array.fold_left max 0 deliv and dsum = Array.fold_left ( + ) 0 deliv in
      let pools = Array.init k (fun s -> Sh.pool_for sh (Part.owned part s).(0)) in
      let sync =
        Array.fold_left max 0.
          (Array.init k (fun s -> 1. -. per (Spans.top_ns sp s) wall))
      in
      let hwm = Array.fold_left max 0 (Array.init k (Sh.mailbox_hwm sh)) in
      mechanism_layer sp ~reqs ~local:(total c_local) ~combines:issued
        ~by_kind:(List.map2 (fun k k0 -> Sh.total_of_kind sh k - k0) kinds kinds0)
        ~sntupdates:(sntupdates sys n) ~grants:(total c_grants) ~breaks:(total c_breaks)
      @ [
          ("sharded.sync_frac", sync);
          ("sharded.window_us", per wall windows /. 1e3);
          ("sharded.windows_per_kreq", per (1000 * windows) reqs);
          ("sharded.stalls", float_of_int (Sh.stalls sh - stalls0));
          ("sharded.model_speedup", per (work - work0) (crit - crit0));
          ("sharded.balance", per dmax dsum *. float_of_int k);
          ("mailbox.route_ns_per_send", per (Spans.self_ns sp Spans.route) (Spans.count sp Spans.route));
          ("mailbox.crossings_per_req", per (Sh.crossings sh - cross0) reqs);
          ("mailbox.hwm", float_of_int hwm);
          ( "frame.pool_hwm",
            float_of_int (Array.fold_left (fun a p -> max a (Simul.Frame.hwm p)) 0 pools));
          ( "frame.created",
            float_of_int (Array.fold_left (fun a p -> a + Simul.Frame.created p) 0 pools));
          ( "telemetry.audit_checks",
            float_of_int (Telemetry.Audit.checks audit - checks0));
          ( "telemetry.lag_p99_windows",
            float_of_int (Telemetry.Latency.quantile latency 0.99));
          ("gc.minor_words_per_req", minor /. float_of_int reqs);
          ("gc.major_collections", float_of_int majors);
          ("partition.edge_cut", float_of_int (Part.edge_cut part));
          ("partition.planned_balance", Part.balance_ratio part);
        ]
    end
  in
  {
    kind;
    setup = float_of_int (bounds.(0) - t_start) /. 1e9;
    raw_setup = float_of_int (bounds.(0) - t_start) /. 1e9;
    speed = nan;
    rates;
    raw_rates = rates;
    p50 = Array.map fst q;
    p99 = Array.map snd q;
    lat;
    seg_start;
    samples = !samples;
    rss_mb = peak_rss_mb ();
    reqs;
    msgs;
    attempted = reqs + List.length end_checks;
    failed;
    layer;
    spans = sp;
  }

(* ------------------------------------------------------------------ *)
(* Report *)

let end_to_end =
  [
    ("req_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("msgs_per_req", "msg/req");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

(* Every per-layer metric with its unit and the value printed where it
   does not apply (see NOTES.md): no windows, barrier or mailbox on the
   single-domain engine; network.ns_per_msg only where the benchmark
   drives Network.deliver_any itself (rww-seq); telemetry recorders
   only on monitor-2d. *)
let per_layer =
  [
    ("feed.ns_per_req", "ns/req", 0.);
    ("mechanism.initiate_ns_per_req", "ns/req", 0.);
    ("mechanism.local_combine_frac", "frac", 0.);
    ("mechanism.handler_ns_per_msg", "ns/msg", 0.);
    ("mechanism.probe_per_req", "msg/req", 0.);
    ("mechanism.response_per_req", "msg/req", 0.);
    ("mechanism.update_per_req", "msg/req", 0.);
    ("mechanism.release_per_req", "msg/req", 0.);
    ("mechanism.sntupdates_len", "entries", 0.);
    ("policy.lease_grants_per_req", "1/req", 0.);
    ("policy.lease_breaks_per_req", "1/req", 0.);
    ("network.ns_per_msg", "ns/msg", 0.);
    ("sharded.sync_frac", "frac", 0.);
    ("sharded.window_us", "us", 0.);
    ("sharded.windows_per_kreq", "windows/kreq", 0.);
    ("sharded.stalls", "count", 0.);
    ("sharded.model_speedup", "x", 1.);
    ("sharded.balance", "x", 1.);
    ("mailbox.route_ns_per_send", "ns/send", 0.);
    ("mailbox.crossings_per_req", "1/req", 0.);
    ("mailbox.hwm", "frames", 0.);
    ("frame.pool_hwm", "frames", 0.);
    ("frame.created", "frames", 0.);
    ("telemetry.overhead_frac", "frac", 0.);
    ("telemetry.audit_checks", "count", 0.);
    ("telemetry.lag_p99_windows", "windows", 0.);
    ("gc.minor_words_per_req", "words/req", 0.);
    ("gc.major_collections", "count", 0.);
    ("partition.edge_cut", "edges", 0.);
    ("partition.planned_balance", "x", 1.);
    ("trace.overhead_frac", "frac", 0.);
  ]

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let kind_names = [ ("plain", Plain); ("traced", Traced); ("bare", Bare) ]

(* The child side of [in_process]: run one round and write its result
   (or the exception it raised, as text) to stdout. *)
let serve_round f =
  let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (r : (round, string) result) [];
  flush stdout

(* Run one round of kind [kind] in a fresh process of this program
   ([argv] is this run's own command line) and return its result through
   a pipe; the process is reaped before this returns.  A fresh process
   image, rather than a fork, keeps the parent's memory out of the
   round's VmHWM. *)
let in_process argv kind : (round, string) result =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let name = fst (List.find (fun (_, k) -> k = kind) kind_names) in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append argv [| "--round"; name |])
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let r = try Some (Marshal.from_channel ic) with _ -> None in
  close_in ic;
  match (Unix.waitpid [] pid, r) with
  | (_, Unix.WEXITED 0), Some r -> r
  | _ -> Error "the round's process died"

(* The [q]-quantile of the sorted samples [a], interpolated between
   the two nearest ranks. *)
let exact_quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let lo = float_of_int a.(i) and hi = float_of_int a.(min (i + 1) (n - 1)) in
    lo +. ((hi -. lo) *. (x -. float_of_int i))
  end

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* Fold a plain round's combine latencies into [best], per domain the
   lowest latency seen so far for each combine (empty before the
   first round). *)
let keep_best best r =
  Array.mapi
    (fun d st ->
      let m = st.(Array.length st - 1) in
      let b = if Array.length best = 0 then Array.make m max_int else best.(d) in
      for i = 0 to m - 1 do
        b.(i) <- Int.min b.(i) (lat_get r.lat.(d) i)
      done;
      b)
    r.seg_start

let report ~rounds ~best ~trace ~spec =
  let of_kind k = List.filter (fun r -> r.kind = k) rounds in
  let plain = of_kind Plain in
  (* How per-segment figures become one value (NOTES.md, findings 3
     and 8): the median over all segments of all rounds.  It drops
     short bursts of interference and late wake-ups at the barrier, and
     spans the stream's content.  On rww-seq the rounds report their
     figures at the reference speed, which also takes out the host's
     slow spells, even one that covers the whole run. *)
  let center f rs = median (List.concat_map (fun r -> Array.to_list (f r)) rs) in
  let rate rs = center (fun r -> r.rates) rs in
  (* Combine latency quantile [q].  Where a combine's latency is its
     own work ([per_combine]: monitor-2d's local reads), every round
     issues the same combines in the same order, so the finest
     undisturbed figure is each combine's best over the rounds (finding
     7).  The quantile is taken per segment over the best latencies,
     then the median over the segments.  On rww-seq each segment is
     scaled by its own kernel readings, and a best over rounds would
     pick the rounds whose kernel read slow by chance; there, as on
     rww-open-2d (where a combine waits for windows that other requests
     and the barrier fill), the median of the per-segment quantiles of
     all rounds is reported. *)
  let latency q rs =
    match rs with
    | [] -> nan
    | _ when not spec.per_combine -> center (fun r -> if q = 0.5 then r.p50 else r.p99) rs
    | r0 :: _ ->
      median
        (List.init (Array.length r0.rates) (fun sg ->
             let a =
               Array.concat
                 (Array.to_list
                    (Array.mapi
                       (fun d st -> Array.sub best.(d) st.(sg) (st.(sg + 1) - st.(sg)))
                       r0.seg_start))
             in
             Array.sort Int.compare a;
             exact_quantile a q /. 1e3))
  in
  let metrics =
    if not trace then begin
      let sum f = List.fold_left (fun a r -> a + f r) 0 plain in
      let value = function
        | "req_per_s" -> rate plain
        | "latency_p50_us" -> latency 0.5 plain
        | "latency_p99_us" -> latency 0.99 plain
        | "msgs_per_req" -> per (sum (fun r -> r.msgs)) (sum (fun r -> r.reqs))
        | "peak_rss_mb" -> median (List.map (fun r -> r.rss_mb) plain)
        | "setup_s" -> median (List.map (fun r -> r.setup) rounds)
        | m -> invalid_arg m
      in
      List.map (fun (m, u) -> (m, value m, u)) end_to_end
    end
    else begin
      let traced = of_kind Traced in
      let lost base rs = 1. -. (rate rs /. rate base) in
      let value m na =
        match m with
        | "trace.overhead_frac" -> lost plain traced
        | "telemetry.overhead_frac" when spec.lease_all -> lost (of_kind Bare) plain
        | _ -> (
          match List.filter_map (fun r -> List.assoc_opt m r.layer) traced with
          | [] -> na
          | vs -> median vs)
      in
      List.map (fun (m, u, na) -> (m, value m na, u)) per_layer
    end
  in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 rounds in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 rounds in
  let samples = List.fold_left (fun a r -> min a r.samples) max_int rounds in
  List.iter (fun (m, v, u) -> Printf.printf "%-32s %14.6g %s\n" m v u) metrics;
  Printf.printf "rounds: %d of %d segments; combines per segment: >= %d\n"
    (List.length rounds) (Array.length (List.hd rounds).rates) samples;
  if spec.shards = 1 then
    Printf.printf
      "host speed: reference kernel %.0f us after set-up (median over rounds); times are scaled \
       to %.0f us; before the scaling, req_per_s %.0f and setup_s %.4f\n"
      (median (List.map (fun r -> r.speed) rounds) /. 1e3)
      (Calib.ref_ns /. 1e3)
      (center (fun r -> r.raw_rates) plain)
      (median (List.map (fun r -> r.raw_setup) rounds));
  Printf.printf "checks: %d attempted, %d failed\n" attempted failed;
  (if trace then
     match List.rev (of_kind Traced) with
     | [] -> ()
     | r :: _ -> (
       match Spans.slowest r.spans with
       | None -> ()
       | Some (id, ns, per_layer) ->
         Printf.eprintf "slowest traced %s in the span ring: id %d, %d ns in traced calls\n"
           (if spec.shards = 1 then "request" else "window") id ns;
         for l = 0 to Spans.layers - 1 do
           if per_layer.(Spans.layers + l) > 0 then
             Printf.eprintf "  %-9s %6d spans %12d ns self\n" Spans.name.(l)
               per_layer.(Spans.layers + l) per_layer.(l)
         done));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (m, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m (json_num v) u)
          metrics));
  failed = 0

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let size = ref "full" and fault = ref false and round = ref "" in
  let usage =
    "main.exe --workload rww-seq|rww-open-2d|monitor-2d --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the request stream (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S run length; sets the number of rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--size", Arg.Symbol ([ "full"; "small" ], ( := ) size), " small: the benchmark's own test");
      ("--inject-fault", Arg.Set fault, " corrupt the expected answers (the checks must fire)");
      ("--round", Arg.Set_string round, "KIND run one round and write it to stdout (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> if !size = "small" then small s else s
    | None -> fail ("unknown workload " ^ !workload ^ "\n" ^ usage)
  in
  if !seed < 0 then fail "--seed must be given, >= 0";
  if !seconds < 1 then fail "--seconds must be given, >= 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let trace = !trace = 1 in
  let run = if spec.shards = 1 then seq_round else sharded_round in
  let cycle =
    if not trace then [| Plain |]
    else if spec.lease_all then [| Plain; Traced; Bare |]
    else [| Plain; Traced |]
  in
  match List.assoc_opt !round kind_names with
  | Some kind -> serve_round (fun () -> run spec ~seed:!seed ~kind ~fault:!fault)
  | None ->
    if !round <> "" then fail ("unknown round kind " ^ !round);
    (* Rounds run until --seconds have passed, at least one of each
       kind.  Every round does the same work, so the deterministic
       counts do not depend on how many rounds fit.  Each round runs in
       a fresh process, so every round starts from the same cold heap:
       no round reuses memory an earlier round grew, and each round's
       VmHWM is its own, with none of this process's memory in it.  A
       plain round's combine latencies are folded into [best] as it
       arrives, and not kept. *)
    let t_end = now () + (!seconds * 1_000_000_000) in
    let rec rounds i best acc =
      if i >= Array.length cycle && now () >= t_end then (List.rev acc, best)
      else begin
        match in_process Sys.argv cycle.(i mod Array.length cycle) with
        | Ok r ->
          let best = if r.kind = Plain && spec.per_combine then keep_best best r else best in
          rounds (i + 1) best ({ r with lat = [||] } :: acc)
        | Error msg -> fail ("round " ^ string_of_int i ^ " failed: " ^ msg)
      end
    in
    let rounds, best = rounds 0 [||] [] in
    if not (report ~rounds ~best ~trace ~spec) then exit 1
