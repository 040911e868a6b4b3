(* Reliable transport over a faulty Network: per-directed-channel
   sequence numbers, receiver-side dedup + reorder buffers, cumulative
   acks and timeout/retransmit (go-back-N, exponential backoff) on
   Devent's virtual-time axis.  Sessions are guarded by per-node
   incarnation numbers: a crash bumps the node's incarnation, voiding
   every frame stamped for the previous one, and a restart re-
   establishes all incident sessions from sequence 0 — the simulator-
   level equivalent of a connection reset.  The layer above therefore
   sees exactly-once FIFO channels between any two incarnations, which
   is the mechanism's correctness precondition.

   The transport is monomorphic over pooled binary frames: transport
   fields (seq, incarnations) are stamped into the frame header in
   place, the retransmit buffer holds the frames themselves, and a
   retransmission resends the identical frame — no re-encode anywhere.
   Reference discipline: [send] consumes the caller's reference into
   the unacked window; every physical transmission retains once (the
   network queue's reference); [handle] consumes the delivered
   reference — passing it up on in-order data, releasing it otherwise.
   Acks are pooled frames too (kind [Kind.Ack], cumulative sequence in
   the header's seq field). *)

(* Both directions' endpoint state of one directed channel: the sender
   side lives at the channel's source, the receiver side at its
   destination. *)
type chan = {
  mutable s_next : int;   (* next sequence number to assign *)
  mutable s_base : int;   (* lowest unacked sequence number *)
  unacked : Frame.t Queue.t;  (* frames [s_base, s_next), stamped *)
  mutable rto_cur : float;
  mutable gen : int;      (* bumps logically cancel armed timers *)
  mutable armed : int;    (* lifetime arm count: the jitter draw index *)
  mutable r_next : int;   (* receiver: next expected sequence number *)
  ooo : (int, Frame.t) Hashtbl.t; (* receiver: buffered out-of-order *)
}

type t = {
  tree : Tree.t;
  net : Network.t;
  timer : Devent.t;
  pool : Frame.pool;      (* ack frames *)
  deliver : src:int -> dst:int -> Frame.t -> unit;
  chans : chan array;     (* by tree channel id *)
  inc : int array;        (* per-node incarnation, bumped on crash *)
  up : bool array;
  rto0 : float;
  max_rto : float;
  jitter : float;         (* timer spread factor; 0 = exact backoff *)
  jseed : int;
  mutable unacked_total : int;
  retransmits : Telemetry.Metrics.counter;
  dedup_drops : Telemetry.Metrics.counter;
  stale_drops : Telemetry.Metrics.counter;
  teardown_drops : Telemetry.Metrics.counter;
}

(* Each expiry doubles the channel's timeout, up to [max_rto]. *)
let backoff = 2.0

let create ?(metrics = Telemetry.Metrics.create ()) ?pool ?(rto = 4.0)
    ?(max_rto = 64.0) ?(jitter = 0.0) ?(seed = 0) ~timer ~net ~deliver () =
  if rto <= 0.0 || max_rto < rto then
    invalid_arg "Reliable.create: need rto > 0, max_rto >= rto";
  if Float.is_nan jitter || jitter < 0.0 then
    invalid_arg "Reliable.create: need jitter >= 0";
  let tree = Network.tree net in
  let n = Tree.n_nodes tree in
  let n_chans = Tree.n_channels tree in
  {
    tree;
    net;
    timer;
    pool =
      (match pool with
      | Some p -> p
      | None -> Frame.create_pool ~name:"rel.acks" ());
    deliver;
    chans =
      Array.init (max 1 n_chans) (fun _ ->
          {
            s_next = 0;
            s_base = 0;
            unacked = Queue.create ();
            rto_cur = rto;
            gen = 0;
            armed = 0;
            r_next = 0;
            ooo = Hashtbl.create 8;
          });
    inc = Array.make n 0;
    up = Array.make n true;
    rto0 = rto;
    max_rto;
    jitter;
    jseed = seed;
    unacked_total = 0;
    retransmits = Telemetry.Metrics.counter metrics "net.retransmits";
    dedup_drops = Telemetry.Metrics.counter metrics "net.dedup_drops";
    stale_drops = Telemetry.Metrics.counter metrics "net.stale_drops";
    teardown_drops = Telemetry.Metrics.counter metrics "net.teardown_drops";
  }

let cid t ~src ~dst =
  match Tree.channel t.tree ~src ~dst with
  | -1 ->
    invalid_arg
      (Printf.sprintf "Reliable: (%d,%d) is not an edge of the tree" src dst)
  | c -> c

let src_of t ci = Tree.channel_src t.tree ci
let dst_of t ci = Tree.channel_dst t.tree ci

(* One physical transmission: the network queue takes one reference. *)
let transmit t ~src ~dst f =
  Frame.retain f;
  Network.send t.net ~src ~dst f

(* Retransmission timers: [arm] schedules a firing [rto_cur] ahead on
   the virtual clock, tagged with the channel's current generation.  A
   generation bump (ack progress, teardown) logically cancels every
   armed firing, since heap entries cannot be removed.

   With [jitter > 0] each firing lands a seeded, deterministic factor
   in [1, 1 + jitter) later than the backed-off base — spreading
   synchronized expiries (e.g. every channel into a crashed node arming
   in lock-step) without breaking reproducibility: the draw is a
   stateless hash of (seed, channel, lifetime arm index), independent
   of scheduler interleaving. *)
let rec arm t ci =
  let c = t.chans.(ci) in
  let g = c.gen in
  let d =
    if t.jitter <= 0.0 then c.rto_cur
    else begin
      let k = (((t.jseed * 1_000_003) + ci) * 999_983) + c.armed in
      c.armed <- c.armed + 1;
      let u = Prng.Splitmix.float (Prng.Splitmix.create k) in
      c.rto_cur *. (1.0 +. (t.jitter *. u))
    end
  in
  Devent.after t.timer d (fun () -> on_timer t ci g)

and on_timer t ci g =
  let c = t.chans.(ci) in
  if g = c.gen && not (Queue.is_empty c.unacked) then begin
    (* go-back-N: retransmit the whole unacked window — the identical
       frames, header stamps and all; no re-encode *)
    let src = src_of t ci and dst = dst_of t ci in
    Queue.iter (fun f -> transmit t ~src ~dst f) c.unacked;
    Telemetry.Metrics.add t.retransmits (Queue.length c.unacked);
    c.rto_cur <- Float.min t.max_rto (c.rto_cur *. backoff);
    arm t ci
  end

(* Consumes the caller's reference: the frame is stamped in place and
   held in the unacked window until cumulatively acknowledged.  The
   stamps stay valid for the frame's whole stay — any incarnation bump
   of either endpoint tears this channel down first. *)
let send t ~src ~dst f =
  if not t.up.(src) then
    invalid_arg "Reliable.send: source node is down";
  let ci = cid t ~src ~dst in
  let c = t.chans.(ci) in
  let seq = c.s_next in
  c.s_next <- seq + 1;
  Frame.set_seq f seq;
  Frame.set_s_inc f t.inc.(src);
  Frame.set_r_inc f t.inc.(dst);
  Frame.set_stamped f true;
  Queue.add f c.unacked;
  t.unacked_total <- t.unacked_total + 1;
  transmit t ~src ~dst f;
  if Queue.length c.unacked = 1 then begin
    c.rto_cur <- t.rto0;
    arm t ci
  end

let send_ack t ~src ~dst c =
  (* ack travels dst -> src, acknowledging the data channel (src,dst);
     the cumulative sequence rides in the header's seq field *)
  let f = Frame.alloc t.pool in
  Frame.set_kind f (Kind.index Kind.Ack);
  Frame.set_seq f (c.r_next - 1);
  Frame.set_s_inc f t.inc.(dst);
  Frame.set_r_inc f t.inc.(src);
  Frame.set_stamped f true;
  Network.send t.net ~src:dst ~dst:src f

(* Consumes the delivered reference: in-order data frames are passed up
   (the upper handler releases them), everything else is released
   here. *)
let handle t ~src ~dst f =
  if not t.up.(dst) then begin
    (* frame addressed to a crashed node: lost with the node *)
    Telemetry.Metrics.incr t.teardown_drops;
    Frame.release f
  end
  else if Frame.kind f = Kind.index Kind.Ack then begin
    (* sent by [src], acknowledging the data channel (dst,src) *)
    let cum = Frame.seq f in
    let stale =
      Frame.s_inc f <> t.inc.(src) || Frame.r_inc f <> t.inc.(dst)
    in
    if stale then Telemetry.Metrics.incr t.stale_drops
    else begin
      let ci = cid t ~src:dst ~dst:src in
      let c = t.chans.(ci) in
      if cum >= c.s_base then begin
        let k = min (cum - c.s_base + 1) (Queue.length c.unacked) in
        for _ = 1 to k do
          Frame.release (Queue.pop c.unacked)
        done;
        t.unacked_total <- t.unacked_total - k;
        c.s_base <- c.s_base + k;
        c.gen <- c.gen + 1;
        c.rto_cur <- t.rto0;
        if not (Queue.is_empty c.unacked) then arm t ci
      end
    end;
    Frame.release f
  end
  else if Frame.s_inc f <> t.inc.(src) || Frame.r_inc f <> t.inc.(dst) then begin
    Telemetry.Metrics.incr t.stale_drops;
    Frame.release f
  end
  else begin
    let seq = Frame.seq f in
    let c = t.chans.(cid t ~src ~dst) in
    if seq < c.r_next then begin
      Telemetry.Metrics.incr t.dedup_drops;
      Frame.release f;
      (* re-ack so a sender that lost our ack makes progress *)
      send_ack t ~src ~dst c
    end
    else if seq = c.r_next then begin
      c.r_next <- seq + 1;
      t.deliver ~src ~dst f;
      let rec drain_ooo () =
        match Hashtbl.find_opt c.ooo c.r_next with
        | Some g ->
          Hashtbl.remove c.ooo c.r_next;
          c.r_next <- c.r_next + 1;
          t.deliver ~src ~dst g;
          drain_ooo ()
        | None -> ()
      in
      drain_ooo ();
      send_ack t ~src ~dst c
    end
    else begin
      if Hashtbl.mem c.ooo seq then begin
        Telemetry.Metrics.incr t.dedup_drops;
        Frame.release f
      end
      else Hashtbl.replace c.ooo seq f;
      send_ack t ~src ~dst c
    end
  end

let teardown t ci =
  let c = t.chans.(ci) in
  let k = Queue.length c.unacked in
  Queue.iter Frame.release c.unacked;
  Queue.clear c.unacked;
  t.unacked_total <- t.unacked_total - k;
  Telemetry.Metrics.add t.teardown_drops k;
  Hashtbl.iter (fun _ f -> Frame.release f) c.ooo;
  Hashtbl.reset c.ooo;
  c.gen <- c.gen + 1;
  c.rto_cur <- t.rto0

let iter_incident t u f =
  Tree.iter_neighbors t.tree u (fun v ->
      f (cid t ~src:u ~dst:v);
      f (cid t ~src:v ~dst:u))

let crash t ~node =
  if not t.up.(node) then invalid_arg "Reliable.crash: node already down";
  t.up.(node) <- false;
  (* void every frame stamped for this incarnation, both directions *)
  t.inc.(node) <- t.inc.(node) + 1;
  iter_incident t node (teardown t)

let restart t ~node =
  if t.up.(node) then invalid_arg "Reliable.restart: node is up";
  t.up.(node) <- true;
  (* re-establish every incident session from sequence 0 *)
  iter_incident t node (fun ci ->
      teardown t ci;
      let c = t.chans.(ci) in
      c.s_next <- 0;
      c.s_base <- 0;
      c.r_next <- 0)

let is_up t node = t.up.(node)

let incarnation t node = t.inc.(node)

let unacked t = t.unacked_total

let is_quiescent t = t.unacked_total = 0

let retransmits t = Telemetry.Metrics.counter_value t.retransmits

let dedup_drops t = Telemetry.Metrics.counter_value t.dedup_drops

let stale_drops t = Telemetry.Metrics.counter_value t.stale_drops

let teardown_drops t = Telemetry.Metrics.counter_value t.teardown_drops

let check_invariants t =
  let fail fmt =
    Format.kasprintf failwith ("Reliable.check_invariants: " ^^ fmt)
  in
  let total = ref 0 in
  Array.iteri
    (fun ci c ->
      let len = Queue.length c.unacked in
      total := !total + len;
      if c.s_base + len <> c.s_next then
        fail "channel %d->%d: base %d + %d unacked <> next %d" (src_of t ci)
          (dst_of t ci) c.s_base len c.s_next;
      let seq = ref c.s_base in
      Queue.iter
        (fun f ->
          if Frame.rc f < 1 then
            fail "channel %d->%d: unacked frame seq %d not live" (src_of t ci)
              (dst_of t ci) !seq;
          if not (Frame.stamped f) then
            fail "channel %d->%d: unstamped frame in unacked window"
              (src_of t ci) (dst_of t ci);
          if Frame.seq f <> !seq then
            fail "channel %d->%d: unacked frame stamped %d at window pos %d"
              (src_of t ci) (dst_of t ci) (Frame.seq f) !seq;
          incr seq)
        c.unacked;
      Hashtbl.iter
        (fun seq f ->
          if seq < c.r_next then
            fail "channel %d->%d: buffered seq %d below expected %d"
              (src_of t ci) (dst_of t ci) seq c.r_next;
          if Frame.rc f < 1 then
            fail "channel %d->%d: buffered frame seq %d not live"
              (src_of t ci) (dst_of t ci) seq)
        c.ooo)
    t.chans;
  if !total <> t.unacked_total then
    fail "unacked_total %d but %d buffered" t.unacked_total !total
