(* Channels are the tree's directed-channel ids ({!Tree.channel}).
   Every queued frame sits in one shared pool of cells: [cmsg] holds
   the frame, [cnext] the index of the next cell in the same channel,
   and free cells chain from [free] through [cnext].  A channel is a
   four-int header in [q] (first cell, last cell, queued count,
   registry position), so a network costs four words per channel plus
   O(messages in flight), and the steady-state send/pop cycle is
   allocation-free once the pool has grown to the run's in-flight
   high-water (it doubles when it runs out).  On top of the headers
   sits the active-channel registry: a dense array of the ids of all
   nonempty channels, each channel's position in it kept in its
   header; it starts small and doubles when a channel joins a full
   one, so it follows the traffic too.  [send], [pop] and the deliver
   pair maintain it incrementally, so the scheduler never scans the
   tree: [deliver_any] reads the registry head and [deliver_random]
   picks a uniform index and swap-removes — both O(1) per delivery and
   allocation-free: src, dst and frame go straight to a handler. *)

(* Pre-registered telemetry handles: resolved once at creation so the
   hot path pays one [match] on the option plus O(1) metric updates. *)
type net_tel = {
  sent_k : Telemetry.Metrics.counter array;      (* per kind *)
  delivered_k : Telemetry.Metrics.counter array; (* per kind *)
  inflight : Telemetry.Metrics.gauge;            (* hwm = in-flight high-water *)
  occupancy : Telemetry.Metrics.gauge;           (* hwm = channel occupancy high-water *)
  pool_live : Telemetry.Metrics.gauge;           (* frame-pool live gauge *)
  pool_hwm : Telemetry.Metrics.gauge;            (* frame-pool live high-water *)
}

type fault_decision = { drop : bool; duplicate : bool; reorder_depth : int }

type fault_hook = src:int -> dst:int -> attempt:int -> fault_decision

(* Channel header layout: four ints per channel id in [q]. *)
let h_first = 0 (* first cell, -1 when empty *)
let h_last = 1 (* last cell, -1 when empty *)
let h_count = 2 (* queued messages *)
let h_reg = 3 (* index in [registry], -1 when empty *)

type t = {
  tree : Tree.t;
  q : int array;              (* 4 ints per channel id, see [h_*] *)
  mutable cmsg : Frame.t array; (* cell frames; free cells hold [filler] *)
  mutable cnext : int array;  (* next cell of the same list, -1 = end *)
  mutable free : int;         (* free-list head, -1 = pool exhausted *)
  mutable registry : int array; (* ids of nonempty channels: dense prefix *)
  mutable reg_len : int;
  on_send : src:int -> dst:int -> unit;
  mutable in_flight : int;
  mutable total : int;
  kind_totals : int array;
  tel : net_tel option;
  sink : Telemetry.Sink.t;
  shard : int;                (* stamped on every sink event; 0 single-domain *)
  recording : bool;           (* [Sink.enabled sink], cached for the hot path *)
  obs : bool;                 (* metrics or sink active: one hot-path branch *)
  mutable clock : unit -> float;
  mutable tick : int;         (* send+delivery count: the default clock *)
  fault : fault_hook option;
  attempts : int array; (* per channel: transmission attempts, keys fault decisions *)
}

(* What a free cell holds: a frame of a pool of its own, never sent, so
   a popped frame does not stay reachable from the cell it left. *)
let filler = Frame.alloc (Frame.create_pool ~name:"network.filler" ())

let initial_pool_capacity = 64
let initial_registry_capacity = 16

(* Thread cells [lo, hi) onto the free list, ascending. *)
let free_cells t lo hi =
  for c = hi - 1 downto lo do
    t.cnext.(c) <- t.free;
    t.free <- c
  done

let create ?(on_send = fun ~src:_ ~dst:_ -> ()) ?metrics
    ?(sink = Telemetry.Sink.null) ?(shard = 0) ?clock ?fault tree =
  let n_chans = Tree.n_channels tree in
  let tel =
    match metrics with
    | None -> None
    | Some m ->
      let per_kind prefix =
        Array.init Kind.count (fun i ->
            Telemetry.Metrics.counter m
              (prefix ^ Kind.to_string (Kind.of_index i)))
      in
      Some
        {
          sent_k = per_kind "net.sent.";
          delivered_k = per_kind "net.delivered.";
          inflight = Telemetry.Metrics.gauge m "net.in_flight";
          occupancy = Telemetry.Metrics.gauge m "net.channel_occupancy";
          pool_live = Telemetry.Metrics.gauge m "pool.frames.live";
          pool_hwm = Telemetry.Metrics.gauge m "pool.frames.hwm";
        }
  in
  let q = Array.make (4 * n_chans) (-1) in
  for c = 0 to n_chans - 1 do
    q.((4 * c) + h_count) <- 0
  done;
  let t = {
    tree;
    q;
    cmsg = Array.make initial_pool_capacity filler;
    cnext = Array.make initial_pool_capacity (-1);
    free = -1;
    registry = Array.make initial_registry_capacity (-1);
    reg_len = 0;
    on_send;
    in_flight = 0;
    total = 0;
    kind_totals = Array.make Kind.count 0;
    tel;
    sink;
    shard;
    recording = Telemetry.Sink.enabled sink;
    obs = tel <> None || Telemetry.Sink.enabled sink;
    clock = (fun () -> 0.0);
    tick = 0;
    fault;
    attempts =
      (match fault with
      | None -> [||]
      | Some _ -> Array.make (max 1 n_chans) 0);
  }
  in
  free_cells t 0 initial_pool_capacity;
  (t.clock <-
     (match clock with
     | Some c -> c
     | None -> fun () -> float_of_int t.tick));
  t

let tree t = t.tree

let clock t = t.clock

(* Channel id of the directed edge (src,dst). *)
let chan t ~src ~dst =
  match Tree.channel t.tree ~src ~dst with
  | -1 ->
    invalid_arg
      (Printf.sprintf "Network: (%d,%d) is not an edge of the tree" src dst)
  | c -> c

let count t cid = t.q.((4 * cid) + h_count)

(* Cell pool.  Growth doubles both arrays and threads the new half onto
   the free list (amortized; a warmed-up pool never grows again). *)

let grow_pool t =
  let cap = Array.length t.cmsg in
  let cmsg = Array.make (2 * cap) filler in
  let cnext = Array.make (2 * cap) (-1) in
  Array.blit t.cmsg 0 cmsg 0 cap;
  Array.blit t.cnext 0 cnext 0 cap;
  t.cmsg <- cmsg;
  t.cnext <- cnext;
  free_cells t cap (2 * cap)

(* Take a free cell holding [f], linked to nothing. *)
let take_cell t f =
  if t.free < 0 then grow_pool t;
  let c = t.free in
  t.free <- t.cnext.(c);
  t.cmsg.(c) <- f;
  t.cnext.(c) <- -1;
  c

(* Link [f] at the tail of channel [cid]; returns the new count. *)
let push t cid f =
  let c = take_cell t f in
  let h = 4 * cid in
  let len = t.q.(h + h_count) in
  if len = 0 then t.q.(h + h_first) <- c
  else t.cnext.(t.q.(h + h_last)) <- c;
  t.q.(h + h_last) <- c;
  t.q.(h + h_count) <- len + 1;
  len + 1

(* Unlink the head cell of nonempty channel [cid] and return its
   frame; the cell goes back to the free list holding [filler], so
   popped frames don't linger reachable. *)
let pop_cell t cid =
  let h = 4 * cid in
  let c = t.q.(h + h_first) in
  let f = t.cmsg.(c) in
  let len = t.q.(h + h_count) - 1 in
  t.q.(h + h_first) <- t.cnext.(c);
  if len = 0 then t.q.(h + h_last) <- -1;
  t.q.(h + h_count) <- len;
  t.cmsg.(c) <- filler;
  t.cnext.(c) <- t.free;
  t.free <- c;
  f

(* Doubling, like the cell pool: a warmed-up registry never grows
   again, and it holds at most 16 slots or twice the run's peak count
   of nonempty channels. *)
let registry_add t cid =
  let cap = Array.length t.registry in
  if t.reg_len = cap then begin
    let r = Array.make (2 * cap) (-1) in
    Array.blit t.registry 0 r 0 cap;
    t.registry <- r
  end;
  t.registry.(t.reg_len) <- cid;
  t.q.((4 * cid) + h_reg) <- t.reg_len;
  t.reg_len <- t.reg_len + 1

let registry_remove t cid =
  let i = t.q.((4 * cid) + h_reg) in
  let last = t.reg_len - 1 in
  let moved = t.registry.(last) in
  t.registry.(i) <- moved;
  t.q.((4 * moved) + h_reg) <- i;
  t.reg_len <- last;
  t.q.((4 * cid) + h_reg) <- -1

(* Out-of-line observers: the hot path pays a single [t.obs] branch when
   telemetry is off; the static call below only happens when it is on. *)
let observe_send t ~src ~dst k qlen =
  (match t.tel with
  | None -> ()
  | Some tel ->
    Telemetry.Metrics.incr tel.sent_k.(k);
    Telemetry.Metrics.gauge_set tel.inflight t.in_flight;
    Telemetry.Metrics.gauge_set tel.occupancy qlen);
  if t.recording then
    Telemetry.Sink.record t.sink
      (Telemetry.Sink.Sent
         { time = t.clock (); shard = t.shard; src; dst; kind = k })

(* Count a transmission attempt (totals, tick, telemetry).  Shared by
   the fault-free path, faulty enqueues and wire drops: the per-kind
   totals measure physical transmissions — the cost actually paid —
   whether or not the frame reaches the queue. *)
let account t ~src ~dst f qlen =
  let k = Frame.kind f in
  t.kind_totals.(k) <- t.kind_totals.(k) + 1;
  t.total <- t.total + 1;
  t.tick <- t.tick + 1;
  if t.obs then observe_send t ~src ~dst k qlen

(* Insert [f] ahead of up to [depth] frames already queued (the fault
   model's reordering): it lands ahead of exactly min(depth, queued) of
   them, after a walk to the insertion point.  Only ever reached on the
   fault path.  Returns the new count. *)
let insert_reordered t cid depth f =
  let h = 4 * cid in
  let len = t.q.(h + h_count) in
  let ahead = min depth len in
  if ahead = 0 then push t cid f
  else begin
    let c = take_cell t f in
    if ahead = len then begin
      t.cnext.(c) <- t.q.(h + h_first);
      t.q.(h + h_first) <- c
    end
    else begin
      (* the predecessor: cell [len - ahead - 1] from the head *)
      let p = ref t.q.(h + h_first) in
      for _ = 2 to len - ahead do
        p := t.cnext.(!p)
      done;
      t.cnext.(c) <- t.cnext.(!p);
      t.cnext.(!p) <- c
    end;
    t.q.(h + h_count) <- len + 1;
    len + 1
  end

let enqueue_faulty t cid ~src ~dst f depth =
  if count t cid = 0 then registry_add t cid;
  let len =
    if depth <= 0 then push t cid f else insert_reordered t cid depth f
  in
  t.in_flight <- t.in_flight + 1;
  account t ~src ~dst f len;
  t.on_send ~src ~dst

(* The one send implementation, on a channel id; [send] is the channel
   lookup in front of it. *)
let send_chan t cid f =
  let src = Tree.channel_src t.tree cid and dst = Tree.channel_dst t.tree cid in
  match t.fault with
  | None ->
    if count t cid = 0 then registry_add t cid;
    let len = push t cid f in
    let k = Frame.kind f in
    t.kind_totals.(k) <- t.kind_totals.(k) + 1;
    t.total <- t.total + 1;
    t.in_flight <- t.in_flight + 1;
    t.tick <- t.tick + 1;
    if t.obs then observe_send t ~src ~dst k len;
    t.on_send ~src ~dst
  | Some h ->
    let att = t.attempts.(cid) in
    t.attempts.(cid) <- att + 1;
    let d = h ~src ~dst ~attempt:att in
    if d.drop then begin
      (* lost on the wire: the transmission is paid for (counters) but
         nothing is queued and no delivery is scheduled ([on_send] is
         not invoked, so virtual-time schedulers stay in sync).  The
         sender's frame reference dies with the message. *)
      account t ~src ~dst f (count t cid);
      Frame.release f
    end
    else begin
      enqueue_faulty t cid ~src ~dst f d.reorder_depth;
      if d.duplicate then begin
        (* the queue now holds the frame twice: one reference each *)
        Frame.retain f;
        enqueue_faulty t cid ~src ~dst f 0
      end
    end

let send t ~src ~dst f = send_chan t (chan t ~src ~dst) f

let in_flight t = t.in_flight

let is_quiescent t = t.in_flight = 0

let observe_pop t cid f qlen =
  let k = Frame.kind f in
  (match t.tel with
  | None -> ()
  | Some tel ->
    Telemetry.Metrics.incr tel.delivered_k.(k);
    Telemetry.Metrics.gauge_set tel.inflight t.in_flight;
    Telemetry.Metrics.gauge_set tel.occupancy qlen;
    let pool = Frame.pool_of f in
    Telemetry.Metrics.gauge_set tel.pool_live (Frame.live pool);
    Telemetry.Metrics.gauge_set tel.pool_hwm (Frame.hwm pool));
  if t.recording then
    Telemetry.Sink.record t.sink
      (Telemetry.Sink.Delivered
         {
           time = t.clock ();
           shard = t.shard;
           src = Tree.channel_src t.tree cid;
           dst = Tree.channel_dst t.tree cid;
           kind = k;
         })

let pop_chan t cid =
  let f = pop_cell t cid in
  let len = count t cid in
  if len = 0 then registry_remove t cid;
  t.in_flight <- t.in_flight - 1;
  t.tick <- t.tick + 1;
  if t.obs then observe_pop t cid f len;
  f

let pop t ~src ~dst =
  let cid = chan t ~src ~dst in
  if count t cid = 0 then None else Some (pop_chan t cid)

(* Handler-style delivery from the registry head or, with one PRNG draw,
   from a uniform index: src, dst and frame go straight to the handler
   — no option, no tuple, no allocation. *)

let deliver_any t ~handler =
  if t.reg_len = 0 then false
  else begin
    let cid = t.registry.(0) in
    let f = pop_chan t cid in
    handler
      ~src:(Tree.channel_src t.tree cid)
      ~dst:(Tree.channel_dst t.tree cid)
      f;
    true
  end

let deliver_random t rng ~handler =
  if t.reg_len = 0 then false
  else begin
    let cid = t.registry.(Prng.Splitmix.int rng t.reg_len) in
    let f = pop_chan t cid in
    handler
      ~src:(Tree.channel_src t.tree cid)
      ~dst:(Tree.channel_dst t.tree cid)
      f;
    true
  end

(* Debug view only: O(edges) scan in (src, dst) order.  The scheduler
   never calls this; it reads the registry. *)
let nonempty_channels t =
  let acc = ref [] in
  for cid = Tree.n_channels t.tree - 1 downto 0 do
    if count t cid > 0 then
      acc := (Tree.channel_src t.tree cid, Tree.channel_dst t.tree cid) :: !acc
  done;
  !acc

let total_of_kind t k = t.kind_totals.(Kind.index k)

let total t = t.total

let reset_counters t =
  Array.fill t.kind_totals 0 Kind.count 0;
  t.total <- 0

let check_invariants t =
  let fail fmt = Format.kasprintf failwith ("Network.check_invariants: " ^^ fmt) in
  let n_chans = Tree.n_channels t.tree in
  let src c = Tree.channel_src t.tree c and dst c = Tree.channel_dst t.tree c in
  if t.reg_len < 0 || t.reg_len > min n_chans (Array.length t.registry) then
    fail "registry length %d out of range [0,%d]" t.reg_len
      (min n_chans (Array.length t.registry));
  let cap = Array.length t.cmsg in
  if Array.length t.cnext <> cap then
    fail "pool arrays disagree: %d payloads, %d links" cap
      (Array.length t.cnext);
  (* [owner.(c)]: the channel whose list holds cell [c], -2 for the free
     list, -1 for none yet — so no cell sits on two lists. *)
  let owner = Array.make cap (-1) in
  let claim c who =
    if c < 0 || c >= cap then fail "cell %d out of pool range [0,%d)" c cap;
    if owner.(c) <> -1 then
      fail "cell %d on two lists (%d and %d)" c owner.(c) who;
    owner.(c) <- who
  in
  let queued = ref 0 in
  for cid = 0 to n_chans - 1 do
    let h = 4 * cid in
    let len = t.q.(h + h_count) in
    if len < 0 then fail "channel %d count %d negative" cid len;
    queued := !queued + len;
    (* the list walks exactly [len] cells and ends at the last cell *)
    let c = ref t.q.(h + h_first) and last = ref (-1) in
    for _ = 1 to len do
      claim !c cid;
      last := !c;
      c := t.cnext.(!c)
    done;
    if !c <> -1 then fail "channel %d list runs past its count %d" cid len;
    if !last <> t.q.(h + h_last) then
      fail "channel %d list ends at cell %d, header says %d" cid !last
        t.q.(h + h_last);
    let active = len > 0 in
    let pos = t.q.(h + h_reg) in
    if active && pos = -1 then
      fail "nonempty channel %d->%d missing from registry" (src cid) (dst cid);
    if (not active) && pos <> -1 then
      fail "empty channel %d->%d still registered" (src cid) (dst cid);
    if pos <> -1 then begin
      if pos < 0 || pos >= t.reg_len then
        fail "registry position %d of channel %d out of range [0,%d)" pos cid
          t.reg_len;
      if t.registry.(pos) <> cid then
        fail "registry slot %d holds %d, expected %d" pos t.registry.(pos) cid
    end
  done;
  let free = ref 0 and c = ref t.free in
  while !c <> -1 do
    claim !c (-2);
    if t.cmsg.(!c) != filler then fail "free cell %d still holds a frame" !c;
    incr free;
    c := t.cnext.(!c)
  done;
  if !queued + !free <> cap then
    fail "%d queued + %d free cells <> pool capacity %d" !queued !free cap;
  if t.in_flight <> !queued then
    fail "in_flight %d but %d messages queued" t.in_flight !queued;
  if Array.fold_left ( + ) 0 t.kind_totals <> t.total then
    fail "kind totals do not sum to total %d" t.total;
  (* Frame-pool bookkeeping: every queued frame must hold a live
     reference (a freed frame in a queue is a use-after-free; rc must
     cover every queue occurrence), and the pool's free list must be
     internally consistent (catches double releases that slipped
     through as well as leaked frames: at quiescence live = 0). *)
  for c = 0 to cap - 1 do
    let cid = owner.(c) in
    if cid >= 0 then begin
      let f = t.cmsg.(c) in
      if Frame.rc f < 1 then
        fail "queued frame on channel %d->%d has count %d (freed in flight)"
          (src cid) (dst cid) (Frame.rc f);
      (try Frame.check_pool (Frame.pool_of f)
       with Frame.Frame_error e -> fail "frame pool: %s" e)
    end
  done
