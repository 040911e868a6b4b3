(* Sharded multicore engine.  See sharded.mli for the design contract.

   Concurrency discipline, in one paragraph: every piece of mutable
   state has exactly one writing domain per program point.  Shard [s]'s
   network, pool and metrics are touched only by domain [s] (the main
   domain reads them after [Domain.join], which gives the
   happens-before edge).  Mailboxes are the only cross-domain channel
   and hold no lock: in window [w] the sender appends to the region of
   parity [w land 1] and the receiver drains parity [(w-1) land 1], so
   within a window no region has two domains on it, and the barrier
   that ends the window (a mutex and a condition variable) orders every
   append before the drain that reads it.  The windowed drivers'
   scheduling state (request cursors, stop flag) is written only inside
   the barrier's serial section, which runs under the barrier mutex
   while every other domain is parked on the condition variable — so
   worker reads between barriers race with nothing. *)

type t = {
  part : Tree.Partition.partition;
  k : int;
  pools : Frame.pool array;
  nets : Network.t array;
  boxes : Mailbox.t array array; (* boxes.(i).(j): shard i -> shard j *)
  handler : src:int -> dst:int -> Frame.t -> unit;
  mets : Telemetry.Metrics.t array;
  m_deliv : Telemetry.Metrics.counter array;
  m_windows : Telemetry.Metrics.counter array;
  m_stalls : Telemetry.Metrics.counter array;
  m_cin : Telemetry.Metrics.counter array;
  m_cout : Telemetry.Metrics.counter array;
  g_mbhwm : Telemetry.Metrics.gauge array; (* peak inbound mailbox depth *)
  (* Pre-built per-shard ingress callbacks: mailbox drain enqueues on
     the receiving shard's net, where the message is counted (exactly
     once — the sender never counted it). *)
  ingress_fn : (src:int -> dst:int -> Frame.t -> unit) array;
  (* Fleet observability.  [rings]/[ring_sinks] hold one event ring per
     shard (only when tracing): each ring is written exclusively by its
     own domain during the phases and merged by the main domain after
     the join, so recording never synchronises.  [audit] is always on:
     the serial end-of-window section cross-checks the fleet's
     conservation ledgers (pure integer compares).  [series] and
     [latency] sample from the same serial section; [cur_w] mirrors
     each shard's current window (single writer: the owning domain; 0
     outside a windowed run) so [route] picks the mailbox parity and
     the traced nets stamp events on the shared window axis, and
     [win_inits]/[win_gc] publish per-window initiation counts and
     minor-words before the end barrier, like [win_work]. *)
  tracing : bool;
  rings : Telemetry.Sink.ring array;
  ring_sinks : Telemetry.Sink.t array;
  audit : Telemetry.Audit.t;
  series : Telemetry.Series.t;
  latency : Telemetry.Latency.t;
  sampling : bool; (* [Series.enabled series], cached *)
  cur_w : int array;
  win_inits : int array;
  win_gc : int array;
  mutable lat_deliv : int; (* fleet deliveries at the last latency settle *)
  mutable obs_deliv : int; (* fleet deliveries at the last series sample *)
  mutable obs_stalls : int; (* fleet stalls at the last series sample *)
  wall : unit -> float;
  timed : bool; (* a [wall] was supplied; skip timing (and its boxed
                   floats — the window loop must not allocate) otherwise *)
  (* Per-domain GC health, sampled by each worker on its own domain
     (GC counters are domain-local in OCaml 5): minor words allocated
     and worst single window, across all windowed runs. *)
  gc_words : float array;
  gc_worst : float array;
  (* Work accounting for the scaling model: each worker publishes its
     window's work units (ingress copies + initiations + deliveries)
     in [win_work.(s)] before the end barrier; the serial section
     reduces them — sum into [total_work], per-window max into
     [crit_work].  [crit_work] is the critical path Σ_w max_s w(s,w),
     so [total_work /. crit_work] is the speedup an ideal k-core
     machine would see on this execution, independent of how many
     cores this host actually has. *)
  win_work : int array;
  mutable total_work : int;
  mutable crit_work : int;
  mutable windows_run : int;
}

exception Horizon of { windows : int; budget : int }
exception Desync of string

let max_windows = 1_000_000

let create ?wall ?(trace = 0)
    ?(series = Telemetry.Series.null) ?(latency = Telemetry.Latency.null)
    ?audit tree ~partition ~handler =
  let timed, wall =
    match wall with None -> (false, fun () -> 0.) | Some f -> (true, f)
  in
  let k = Tree.Partition.k partition in
  let pools =
    Array.init k (fun s ->
        Frame.create_pool ~name:(Printf.sprintf "shard%d.frames" s) ())
  in
  let tracing = trace > 0 in
  let cur_w = Array.make k 0 in
  let rings =
    if tracing then Array.init k (fun _ -> Telemetry.Sink.ring ~capacity:trace)
    else [||]
  in
  let ring_sinks = Array.map Telemetry.Sink.of_ring rings in
  let nets =
    Array.init k (fun s ->
        if tracing then
          (* Per-shard rings keep recording domain-local (no locks on the
             send/pop path); the window clock puts every shard's events
             on the fleet's shared virtual-time axis. *)
          Network.create ~sink:ring_sinks.(s) ~shard:s
            ~clock:(fun () -> float_of_int cur_w.(s))
            tree
        else Network.create ~shard:s tree)
  in
  let boxes = Array.init k (fun _ -> Array.init k (fun _ -> Mailbox.create ())) in
  let mets = Array.init k (fun _ -> Telemetry.Metrics.create ()) in
  let c name = Array.init k (fun s -> Telemetry.Metrics.counter mets.(s) name) in
  let ingress_fn =
    Array.init k (fun s ~src ~dst f -> Network.send nets.(s) ~src ~dst f)
  in
  {
    part = partition;
    k;
    pools;
    nets;
    boxes;
    handler;
    mets;
    m_deliv = c "shard.deliveries";
    m_windows = c "shard.windows";
    m_stalls = c "shard.stalls";
    m_cin = c "shard.cross.in";
    m_cout = c "shard.cross.out";
    g_mbhwm = Array.init k (fun s -> Telemetry.Metrics.gauge mets.(s) "shard.mailbox.hwm");
    ingress_fn;
    tracing;
    rings;
    ring_sinks;
    audit = (match audit with Some a -> a | None -> Telemetry.Audit.create ());
    series;
    latency;
    sampling = Telemetry.Series.enabled series;
    cur_w;
    win_inits = Array.make k 0;
    win_gc = Array.make k 0;
    lat_deliv = 0;
    obs_deliv = 0;
    obs_stalls = 0;
    wall;
    timed;
    gc_words = Array.make k 0.;
    gc_worst = Array.make k 0.;
    win_work = Array.make k 0;
    total_work = 0;
    crit_work = 0;
    windows_run = 0;
  }

let shards t = t.k
let pool_for t u = t.pools.(Tree.Partition.shard_of t.part u)
let gc_stats t = Array.init t.k (fun s -> (t.gc_words.(s), t.gc_worst.(s)))
let parallel_work t = (t.total_work, t.crit_work)

let route t ~src ~dst f =
  let s = Tree.Partition.shard_of t.part src in
  if Frame.pool_of f != t.pools.(s) then
    failwith
      (Printf.sprintf
         "Sharded.route: frame from pool %s sent by node %d of shard %d"
         (Frame.pool_name (Frame.pool_of f))
         src s);
  let d = Tree.Partition.shard_of t.part dst in
  if s = d then Network.send t.nets.(s) ~src ~dst f
  else begin
    (* Straight into the receiver's region for this window's parity;
       the receiver ingests it next window. *)
    Mailbox.append t.boxes.(s).(d) ~parity:(t.cur_w.(s) land 1) ~src ~dst f;
    Telemetry.Metrics.incr t.m_cout.(s);
    Frame.release f
  end

(* Drain region [parity] of every inbound mailbox of shard [s] into its
   net, in sender-shard order.  Runs on domain [s].  Top-level
   accumulator so the per-window ingress sweep allocates nothing (the
   GC gate pins the window control plane to ~0 words). *)
let rec ingress_from t s parity j acc =
  if j >= t.k then acc
  else
    let d =
      if j = s then 0
      else
        Mailbox.drain t.boxes.(j).(s) ~parity ~pool:t.pools.(s)
          t.ingress_fn.(s)
    in
    ingress_from t s parity (j + 1) (acc + d)

let ingress t s ~parity =
  let n = ingress_from t s parity 0 0 in
  if n > 0 then Telemetry.Metrics.add t.m_cin.(s) n;
  n

let pending_crossings t =
  let n = ref 0 in
  for i = 0 to t.k - 1 do
    for j = 0 to t.k - 1 do
      if i <> j then n := !n + Mailbox.length t.boxes.(i).(j)
    done
  done;
  !n

let mailbox_hwm t s =
  let mx = ref 0 in
  for j = 0 to t.k - 1 do
    if j <> s then begin
      let h = Mailbox.hwm t.boxes.(j).(s) in
      if h > !mx then mx := h
    end
  done;
  !mx

(* Superstep span ids: negative, so they can never collide with the
   mechanism's combine-span ids (allocated non-negative by its own
   counter), and unique per (window, shard, phase).  The per-window
   decision span takes the unused phase-2 slot of shard 0. *)
let phase_id t w s phase = -((((w * t.k) + s) * 3) + phase + 1)
let decision_id t w = -((w * t.k * 3) + 3)

(* One edge of a superstep span, on shard [s]'s ring and its
   supersteps lane (node -1).  Callers test [t.tracing] first. *)
let span t s ~edge ~time ~name ~id =
  Telemetry.Sink.record t.ring_sinks.(s)
    (match edge with
    | `Begin -> Telemetry.Sink.Span_begin { time; shard = s; node = -1; name; id }
    | `End -> Telemetry.Sink.Span_end { time; shard = s; node = -1; name; id })

(* End-of-window fleet observability.  Runs in the end barrier's serial
   section: every other domain is parked on the condition variable, so
   all per-shard counters, pools and mailboxes are stable plain reads.

   The audit is always on — its happy path is integer compares over
   counters the engine maintains anyway, and at a window's end barrier
   every local net is provably quiescent (phase B ran it dry), so the
   fleet ledgers must balance exactly:

     Σ sent  = Σ delivered + Σ in-flight   (local queues are empty)
     Σ cross-out = Σ cross-in + pending    (mailbox conservation)
     Σ live frames = Σ in-flight           (pool accounting)

   Latency rides the same quiescence rule as the single-domain engine:
   requests issue at their initiation window and the whole outstanding
   batch settles at the first end-of-window with no pending crossings —
   the fleet-quiescent points of the shared virtual-time axis — with
   the deliveries since the previous settle as the batch's message
   cost.  The series sampler stores six ints per window (deltas for
   deliveries/stalls, instantaneous in-flight, peak mailbox depth,
   minor words) into its ring. *)
let observe_window t window =
  let sent = ref 0 and infl = ref 0 and del = ref 0 in
  let out = ref 0 and into = ref 0 and live = ref 0 in
  for s = 0 to t.k - 1 do
    sent := !sent + Network.total t.nets.(s);
    infl := !infl + Network.in_flight t.nets.(s);
    del := !del + Telemetry.Metrics.counter_value t.m_deliv.(s);
    out := !out + Telemetry.Metrics.counter_value t.m_cout.(s);
    into := !into + Telemetry.Metrics.counter_value t.m_cin.(s);
    live := !live + Frame.live t.pools.(s)
  done;
  let pending = pending_crossings t in
  Telemetry.Audit.check_conservation t.audit ~window ~sent:!sent
    ~delivered:!del ~in_flight:!infl ~dropped:0;
  Telemetry.Audit.check_crossings t.audit ~window ~out:!out ~into:!into
    ~pending;
  Telemetry.Audit.check_frames t.audit ~window ~live:!live ~in_flight:!infl;
  if Telemetry.Latency.enabled t.latency then begin
    let inits = ref 0 in
    for s = 0 to t.k - 1 do
      inits := !inits + t.win_inits.(s)
    done;
    if !inits > 0 then begin
      let fw = float_of_int window in
      for _ = 1 to !inits do
        Telemetry.Latency.issue t.latency fw
      done
    end;
    if pending = 0 && Telemetry.Latency.outstanding t.latency > 0 then begin
      Telemetry.Latency.settle_all t.latency
        ~time:(float_of_int (window + 1))
        ~msgs:(!del - t.lat_deliv);
      t.lat_deliv <- !del
    end
  end;
  if t.sampling then begin
    let st = ref 0 and gw = ref 0 and mbh = ref 0 in
    for s = 0 to t.k - 1 do
      st := !st + Telemetry.Metrics.counter_value t.m_stalls.(s);
      gw := !gw + t.win_gc.(s);
      let h = mailbox_hwm t s in
      if h > !mbh then mbh := h
    done;
    Telemetry.Series.sample t.series ~window
      ~deliveries:(!del - t.obs_deliv) ~in_flight:pending ~mailbox_hwm:!mbh
      ~stalls:(!st - t.obs_stalls) ~gc_words:!gw;
    t.obs_deliv <- !del;
    t.obs_stalls <- !st
  end

(* ------------------------------------------------------------------ *)
(* Windowed drivers: sense-reversing barrier whose last arriver runs
   the serial termination decision.                                    *)

type ctl = {
  bm : Mutex.t;
  bc : Condition.t;
  mutable arrived : int;
  mutable sense : bool;
  mutable stop : bool;
  mutable next_w : int; (* window every worker jumps to after the end
                           barrier; set in the serial section *)
  mutable err : exn option;
}

let record_error ctl e =
  Mutex.lock ctl.bm;
  (match ctl.err with None -> ctl.err <- Some e | Some _ -> ());
  Mutex.unlock ctl.bm

let barrier ctl k ~serial =
  Mutex.lock ctl.bm;
  let target = not ctl.sense in
  ctl.arrived <- ctl.arrived + 1;
  if ctl.arrived = k then begin
    (try serial ()
     with e ->
       (match ctl.err with None -> ctl.err <- Some e | Some _ -> ());
       ctl.stop <- true);
    ctl.arrived <- 0;
    ctl.sense <- target;
    Condition.broadcast ctl.bc
  end
  else
    while ctl.sense <> target do
      Condition.wait ctl.bc ctl.bm
    done;
  Mutex.unlock ctl.bm

(* A spawned domain's minor heap is fresh memory, and its first pass
   page-faults once per 4 KB page inside whatever the shard allocates
   first: the requests of the first windows (a lease-all combine
   allocates ~21 words, so one in ~24 paid a fault until the heap had
   been round once).  Each worker first allocates and drops a minor
   heap's worth of 2 KB blocks, whose header writes touch every page. *)
let touch_minor_heap () =
  for _ = 1 to (Gc.get ()).Gc.minor_heap_size / 256 do
    ignore (Sys.opaque_identity (Bytes.create 2040))
  done

(* One superstep per window, ended by one barrier:

     ingress — drain region [(w-1) land 1] of every inbound mailbox
       (exactly the frames mailed during window [w-1]);
     initiate this window's requests, deliver the local net to
       quiescence (cross-shard sends are appended to region [w land 1]);
     barrier + serial termination decision.

   The parity split is what enforces the one-window lookahead: a fast
   shard's window-[w] sends land in the region that no shard drains
   until window [w+1], so no shard can observe a same-window frame,
   and the end barrier orders every append before the drain that reads
   it and every drain before the next append to the same region.

   [worker_inits s w] runs shard [s]'s initiations for window [w] and
   returns how many ran; [serial_step w] decides what happens after the
   window's end barrier (and may schedule future initiations): it
   returns the next window number to run, or a negative value to
   terminate.  Returning a window beyond [w + 1] is the adaptive
   lookahead: when no cross-shard traffic is pending, every local net
   is quiescent and both regions of every mailbox are empty, so the
   skipped windows provably execute nothing, whatever their parity,
   and the barrier rounds for them can be elided without changing any
   delivery.  [max_windows] bounds the number of windows actually
   executed (skipped windows are free); past it the run raises
   [Horizon]. *)
let run_windowed t ~worker_inits ~serial_step =
  let ctl =
    {
      bm = Mutex.create ();
      bc = Condition.create ();
      arrived = 0;
      sense = false;
      stop = false;
      next_w = 0;
      err = None;
    }
  in
  let executed = ref 0 in
  let worker s () =
    touch_minor_heap ();
    let w = ref 0 in
    let running = ref true in
    let minor0 = Gc.minor_words () in
    (* The serial closure is built once per worker, not once per window
       — the window loop's control plane must stay allocation-free (the
       GC gate pins it).  [serial_end] reads [!w]; every worker is at
       the same window when the end barrier's serial section runs, so
       the last arriver's [!w] is the window. *)
    let serial_end () =
      t.windows_run <- t.windows_run + 1;
      incr executed;
      match ctl.err with
      | Some _ -> ctl.stop <- true
      | None ->
        let window = !w in
        let mx = ref 0 and sm = ref 0 in
        for i = 0 to t.k - 1 do
          let wk = t.win_work.(i) in
          if wk > !mx then mx := wk;
          sm := !sm + wk
        done;
        t.crit_work <- t.crit_work + !mx;
        t.total_work <- t.total_work + !sm;
        observe_window t window;
        (* The decision span lands on shard 0's ring: its owning domain
           is parked at the barrier, so the serial writer races with
           nothing. *)
        if t.tracing then
          span t 0 ~edge:`Begin ~time:(float_of_int window +. 0.9)
            ~name:"decision" ~id:(decision_id t window);
        let nw = serial_step window in
        if t.tracing then
          span t 0 ~edge:`End ~time:(float_of_int window +. 1.0)
            ~name:"decision" ~id:(decision_id t window);
        if nw < 0 then ctl.stop <- true
        else if !executed >= max_windows then begin
          ctl.err <- Some (Horizon { windows = !executed; budget = max_windows });
          ctl.stop <- true
        end
        else ctl.next_w <- max nw (window + 1)
    in
    while !running do
      (* publish this shard's window before any frame is routed or any
         traced net event recorded: [route]'s parity and the window
         clock read it *)
      t.cur_w.(s) <- !w;
      if t.tracing then
        span t s ~edge:`Begin ~time:(float_of_int !w) ~name:"ingress"
          ~id:(phase_id t !w s 0);
      let inb =
        try ingress t s ~parity:((!w - 1) land 1)
        with e ->
          record_error ctl e;
          -1
      in
      if t.tracing then
        span t s ~edge:`End ~time:(float_of_int !w +. 0.25) ~name:"ingress"
          ~id:(phase_id t !w s 0);
      (* time only the busy section (initiations + local drain), not
         the barrier wait: its worst case bounds every GC pause the
         domain's data plane can suffer *)
      let t0 = if t.timed then t.wall () else 0. in
      let g0 = if t.sampling then Gc.minor_words () else 0. in
      if t.tracing then
        span t s ~edge:`Begin ~time:(float_of_int !w +. 0.3) ~name:"drain"
          ~id:(phase_id t !w s 1);
      (if inb >= 0 then
         try
           let inits = worker_inits s !w in
           let delivered =
             Engine.run_to_quiescence t.nets.(s) ~handler:t.handler
           in
           if delivered > 0 then Telemetry.Metrics.add t.m_deliv.(s) delivered;
           Telemetry.Metrics.incr t.m_windows.(s);
           t.win_work.(s) <- inb + inits + delivered;
           t.win_inits.(s) <- inits;
           if inb = 0 && inits = 0 && delivered = 0 then
             Telemetry.Metrics.incr t.m_stalls.(s)
         with e -> record_error ctl e);
      if t.tracing then
        span t s ~edge:`End ~time:(float_of_int !w +. 0.9) ~name:"drain"
          ~id:(phase_id t !w s 1);
      if t.sampling then
        t.win_gc.(s) <- int_of_float (Gc.minor_words () -. g0);
      if t.timed then begin
        let dt = t.wall () -. t0 in
        if dt > t.gc_worst.(s) then t.gc_worst.(s) <- dt
      end;
      barrier ctl t.k ~serial:serial_end;
      if ctl.stop then running := false else w := ctl.next_w
    done;
    t.gc_words.(s) <- t.gc_words.(s) +. (Gc.minor_words () -. minor0)
  in
  let doms = Array.init t.k (fun s -> Domain.spawn (worker s)) in
  Array.iter Domain.join doms;
  (* between runs, sends (e.g. churn's barrier events) land in parity 0,
     which the next run ingests in its window 1 *)
  Array.fill t.cur_w 0 t.k 0;
  (* record the run's peak inbound mailbox depth per shard *)
  for s = 0 to t.k - 1 do
    Telemetry.Metrics.gauge_set_max t.g_mbhwm.(s) (mailbox_hwm t s)
  done;
  match ctl.err with Some e -> raise e | None -> ()

let run_sequential t ~requests =
  (* [init_idx]/[init_window] name the single request scheduled to fire
     (sequential executions initiate only in quiescent states); written
     in the serial section only. *)
  let cursor = ref 0 and init_idx = ref (-1) and init_window = ref (-1) in
  if Array.length requests > 0 then begin
    init_idx := 0;
    init_window := 0;
    cursor := 1
  end;
  let worker_inits s w =
    let i = !init_idx in
    if
      i >= 0
      && !init_window = w
      && Tree.Partition.shard_of t.part (fst requests.(i)) = s
    then begin
      (snd requests.(i)) ();
      1
    end
    else 0
  in
  let serial_step w =
    if !init_window = w then init_idx := -1 (* this window's init has run *);
    if pending_crossings t = 0 && !init_idx < 0 then
      if !cursor < Array.length requests then begin
        init_idx := !cursor;
        init_window := w + 1;
        incr cursor;
        w + 1
      end
      else -1
    else w + 1
  in
  run_windowed t ~worker_inits ~serial_step

(* Generator-driven open-loop driver: requests are pulled from
   caller-supplied per-shard cursors instead of materialised arrays.
   [pull ~shard ~window] initiates every request of [shard] due at or
   before [window] and returns how many ran (phase B, domain [shard]);
   [next_window ~shard] reports the window of the shard's next pending
   request, [max_int] when exhausted (serial section — the barrier
   makes the cursor reads safe). *)
let run_feed t ~pull ~next_window =
  let worker_inits s w = pull ~shard:s ~window:w in
  let serial_step w =
    if pending_crossings t > 0 then w + 1
    else begin
      (* quiet network: jump straight to the next window with arrivals
         (the adaptive lookahead — skipped windows run nothing) *)
      let nw = ref max_int in
      for s = 0 to t.k - 1 do
        let ww = next_window ~shard:s in
        if ww < !nw then nw := ww
      done;
      if !nw = max_int then -1 else max (w + 1) !nw
    end
  in
  run_windowed t ~worker_inits ~serial_step

(* A materialised request array is one more feed: bucket it by owning
   shard (stable, so each shard keeps request order) and hand
   [run_feed] one array cursor per shard. *)
let run_open t ~requests =
  let feeds =
    let buckets = Array.make t.k [] in
    Array.iter
      (fun (w, node, run) ->
        let s = Tree.Partition.shard_of t.part node in
        buckets.(s) <- (w, run) :: buckets.(s))
      requests;
    Array.map (fun l -> Array.of_list (List.rev l)) buckets
  in
  let cursors = Array.make t.k 0 in
  let next_window ~shard =
    let c = cursors.(shard) in
    if c < Array.length feeds.(shard) then fst feeds.(shard).(c) else max_int
  in
  let pull ~shard ~window =
    let n = ref 0 in
    while next_window ~shard <= window do
      (snd feeds.(shard).(cursors.(shard))) ();
      cursors.(shard) <- cursors.(shard) + 1;
      incr n
    done;
    !n
  in
  run_feed t ~pull ~next_window

(* ------------------------------------------------------------------ *)
(* Replay: a coordinator (the calling domain) hands one recorded step
   at a time to the owning shard's domain over a command slot.  The
   slot's lock serialises the steps and [cur_w] stays 0, so every step
   appends to mailbox parity 0 and ingests it at its next step.        *)

type step =
  | Deliver of { src : int; dst : int }
  | Init of { node : int; run : unit -> unit }

type cmd =
  | Nop
  | Deliver_c of int * int
  | Run_c of (unit -> unit)
  | Quit_c

type slot = {
  sm : Mutex.t;
  sc : Condition.t;
  mutable cmd : cmd;
  mutable serr : exn option;
}

let run_replay t ~schedule =
  let slots =
    Array.init t.k (fun _ ->
        { sm = Mutex.create (); sc = Condition.create (); cmd = Nop; serr = None })
  in
  let worker s () =
    let sl = slots.(s) in
    let running = ref true in
    while !running do
      Mutex.lock sl.sm;
      while match sl.cmd with Nop -> true | _ -> false do
        Condition.wait sl.sc sl.sm
      done;
      let c = sl.cmd in
      Mutex.unlock sl.sm;
      (try
         match c with
         | Nop -> ()
         | Quit_c -> running := false
         | Run_c run ->
           ignore (ingress t s ~parity:0);
           run ()
         | Deliver_c (src, dst) -> (
           (* Pull anything mailed by earlier steps first: the recorded
              message may still be sitting in an inbound mailbox. *)
           ignore (ingress t s ~parity:0);
           match Network.pop t.nets.(s) ~src ~dst with
           | Some f ->
             Telemetry.Metrics.incr t.m_deliv.(s);
             t.handler ~src ~dst f
           | None ->
             raise
               (Desync
                  (Printf.sprintf "replay: no message queued on %d->%d" src dst)))
       with e -> ( match sl.serr with None -> sl.serr <- Some e | Some _ -> ()));
      Mutex.lock sl.sm;
      sl.cmd <- Nop;
      Condition.broadcast sl.sc;
      Mutex.unlock sl.sm
    done
  in
  let dispatch s c =
    let sl = slots.(s) in
    Mutex.lock sl.sm;
    sl.cmd <- c;
    Condition.broadcast sl.sc;
    while match sl.cmd with Nop -> false | _ -> true do
      Condition.wait sl.sc sl.sm
    done;
    Mutex.unlock sl.sm;
    sl.serr
  in
  let doms = Array.init t.k (fun s -> Domain.spawn (worker s)) in
  let abort = ref None in
  let note = function
    | Some e when !abort = None -> abort := Some e
    | _ -> ()
  in
  Array.iter
    (fun st ->
      if !abort = None then
        let s, c =
          match st with
          | Deliver { src; dst } ->
            (Tree.Partition.shard_of t.part dst, Deliver_c (src, dst))
          | Init { node; run } -> (Tree.Partition.shard_of t.part node, Run_c run)
        in
        note (dispatch s c))
    schedule;
  for s = 0 to t.k - 1 do
    ignore (dispatch s Quit_c)
  done;
  Array.iter Domain.join doms;
  match !abort with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Accounting.                                                         *)

let total t = Array.fold_left (fun acc n -> acc + Network.total n) 0 t.nets

let total_of_kind t k =
  Array.fold_left (fun acc n -> acc + Network.total_of_kind n k) 0 t.nets

let delivered t =
  let n = ref 0 in
  for s = 0 to t.k - 1 do
    n := !n + Telemetry.Metrics.counter_value t.m_deliv.(s)
  done;
  !n

let windows t = t.windows_run

let deliveries_of t s = Telemetry.Metrics.counter_value t.m_deliv.(s)
let stalls_of t s = Telemetry.Metrics.counter_value t.m_stalls.(s)

let stalls t =
  let n = ref 0 in
  for s = 0 to t.k - 1 do
    n := !n + Telemetry.Metrics.counter_value t.m_stalls.(s)
  done;
  !n

let crossings t =
  let n = ref 0 in
  for i = 0 to t.k - 1 do
    for j = 0 to t.k - 1 do
      if i <> j then n := !n + Mailbox.pushed t.boxes.(i).(j)
    done
  done;
  !n

let live_frames t =
  Array.fold_left (fun acc p -> acc + Frame.live p) 0 t.pools

let is_quiescent t =
  Array.for_all Network.is_quiescent t.nets && pending_crossings t = 0

(* ------------------------------------------------------------------ *)
(* Fleet observability accessors.  All of these run on the main domain
   after the windowed drivers' [Domain.join] (the happens-before edge
   for every per-shard structure), so plain reads suffice.             *)

let fleet_metrics t = Telemetry.Metrics.merge (Array.to_list t.mets)
let audit t = t.audit
let latency t = t.latency

let fleet_events t =
  if not t.tracing then []
  else begin
    let evs = ref [] in
    for s = t.k - 1 downto 0 do
      evs := Telemetry.Sink.ring_events t.rings.(s) @ !evs
    done;
    List.stable_sort
      (fun a b ->
        compare (Telemetry.Sink.event_time a) (Telemetry.Sink.event_time b))
      !evs
  end

let trace_dropped t =
  Array.fold_left (fun acc r -> acc + Telemetry.Sink.ring_dropped r) 0 t.rings

let fleet_trace t =
  Telemetry.Export.chrome_trace
    ~kind_name:(fun i -> Kind.to_string (Kind.of_index i))
    ~shards:t.k (fleet_events t)

let check_invariants t =
  Array.iter Network.check_invariants t.nets;
  Array.iter Frame.check_pool t.pools;
  if pending_crossings t <> 0 then
    failwith "Sharded.check_invariants: undrained mailbox"
