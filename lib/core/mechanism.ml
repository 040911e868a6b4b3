module IntSet = Set.Make (Int)
module Frame = Simul.Frame

module Make (Op : Agg.Operator.S) = struct
  (* Frame kind codes = [Simul.Kind.index]; the payload layouts are
     described above the senders ("Frame encoding"). *)
  let k_probe = Simul.Kind.index Simul.Kind.Probe
  let k_response = Simul.Kind.index Simul.Kind.Response
  let k_update = Simul.Kind.index Simul.Kind.Update
  let k_release = Simul.Kind.index Simul.Kind.Release
  let k_hello = Simul.Kind.index Simul.Kind.Hello
  let hs = Frame.header_size

  (* The kinds the mechanism sends (Probe..Hello; Ack is the
     transport's): the width of a slot's row in the per-edge ledger. *)
  let ledger_kinds = k_hello + 1

  (* ------------------------------------------------------------------ *)
  (* Dense state.                                                       *)
  (*                                                                    *)
  (* Node state lives in structure-of-arrays columns indexed by node    *)
  (* id, not in per-node records: every column is one flat array of     *)
  (* length n, built once at create (the node set is fixed; churn       *)
  (* detaches and re-attaches nodes but never frees one).  Per-         *)
  (* neighbour-slot state packs into shared arenas indexed by per-node  *)
  (* base offsets, so the whole protocol state is a fixed set of flat   *)
  (* arrays.                                                            *)

  (* Per-node columns (index = node id). *)
  type cols = {
    value : Op.t array;  (* the paper's [val] *)
    gval_cache : Op.t array;  (* fold of value+avals when clean *)
    gval_dirty : Bytes.t;
    alive : Bytes.t;
    att : Bytes.t;  (* membership: attached to the active tree *)
    any_cut : Bytes.t;  (* down_count > 0 or some subcut nonempty *)
    tkn_count : int array;  (* cardinality caches: O(1) tkn()/grntd() *)
    grntd_count : int array;
    down_count : int array;
    det_count : int array;  (* # detached neighbour slots *)
    upcntr : int array;
    completed : int array;  (* completed requests at this node *)
    epoch : int array;  (* incarnation, bumped on restart *)
    deg : int array;
    self_pos : int array;  (* # neighbours with id < self *)
    slot_base : int array;  (* base into the per-slot arenas *)
    req_base : int array;  (* base into the requester arenas *)
    msk_base : int array;  (* base into the snt-mask arena *)
    (* cold columns *)
    policy : Policy.t array;
    view : Policy.view array;  (* {id = u; ops}, built at create *)
    (* Pending local combines.  The oldest waits in [pending1], as the
       caller's continuation itself, when {!combine} issued it with
       nothing else pending at the node and no sink recording spans
       ([no_k] marks the column empty).  Every other one queues in
       [pending], newest first, as a continuation taking the aggregate
       and the cut (unreachable subtree roots; [] on a full aggregate).
       [pending_spans] carries the matching telemetry span ids, in the
       same order; it stays [[]] (no per-combine allocation) when no
       sink is recording. *)
    pending1 : (Op.t -> unit) array;
    pending : (Op.t -> cut:int list -> unit) list array;
    pending_spans : int list array;
    (* Ghost state (Figure 6).  [gwrites] mirrors the write subsequence
       of [glog] in chronological order; arena [shipped] is the prefix
       of it already sent per neighbour slot.  [last_write] rows are
       allocated (size n) only under [~ghost:true], keeping ghost-free
       systems O(n) instead of O(n^2). *)
    glog : Op.t Ghost.entry list array;  (* reversed *)
    gwrites : Op.t Ghost.write array array;
    gwrites_len : int array;
    last_write : int array array;  (* per tree node; -1 = none *)
  }

  (* Per-neighbour-slot arenas (slot s of node u = slot_base.(u) + s,
     the tree's id of channel u -> s-th neighbour; total size = sum of
     degrees).  Requester slots add one self slot per node (req_base;
     size = sum (deg+1)); snt masks are per requester slot x neighbour
     slot (msk_base; sum deg*(deg+1)).  Sized once at create — the tree
     topology is fixed. *)
  type arena = {
    nbr : int array;  (* sorted ascending; slot i = i-th neighbour *)
    taken : Bytes.t;
    granted : Bytes.t;
    down : Bytes.t;  (* known crashed *)
    det : Bytes.t;  (* known detached (membership, not failure) *)
    resync : Bytes.t;  (* next probe to this slot is a recovery re-probe *)
    refresh : Bytes.t;  (* push updates when this slot's response lands *)
    aval : Op.t array;
    probed : int array;  (* # masks containing this slot *)
    nbr_epoch : int array;  (* last epoch heard; -1 none *)
    shipped : int array;  (* ghost: gwrites prefix already sent *)
    log : Ulog.t;  (* the update logs: [uaw] and [sntupdates] *)
    subcut : IntSet.t array;  (* unreachable roots this slot reported *)
    (* requester slots: 0..deg-1 = neighbours, deg = self *)
    pndg : Bytes.t;
    snt_count : int array;  (* popcount of each snt mask *)
    snt : Bytes.t;  (* requester slot x neighbour slot *)
  }

  (* Pre-registered telemetry handles (see Simul.Network for the same
     pattern): one [match] on the option per instrumented site. *)
  type mech_tel = {
    lease_set : Telemetry.Metrics.counter;
    lease_break : Telemetry.Metrics.counter;
    lease_deny : Telemetry.Metrics.counter;
    update_fanout : Telemetry.Metrics.histogram;
    release_cascade : Telemetry.Metrics.histogram;
    ghost_log : Telemetry.Metrics.gauge; (* hwm = ghost write-log high-water *)
    recovery_reprobes : Telemetry.Metrics.counter;
    partial_combines : Telemetry.Metrics.counter;
    departs : Telemetry.Metrics.counter;
    joins : Telemetry.Metrics.counter;
  }

  type t = {
    tree : Tree.t;
    net : Simul.Network.t;
    pool : Frame.pool;  (* every frame this system sends *)
    (* The per-edge ledger (Lemma 3.9's C_A(sigma,u,v) by kind): frames
       sent on slot [s] of kind [k] at [s * ledger_kinds + k], counted in
       [send_frame], the one exit of every frame, so it reads the same on
       both engines.  Slot [s] is written only by its owning node's
       domain. *)
    ledger : int array;
    n : int;
    c : cols;
    a : arena;
    ghost : bool;
    tel : mech_tel option;
    sink : Telemetry.Sink.t;
    recording : bool; (* [Sink.enabled sink], cached for the hot path *)
    obs : bool; (* metrics or sink active: one hot-path branch *)
    clock : unit -> float; (* shared with the network *)
    spans : Telemetry.Span.allocator;
    (* Egress indirection for every other transport: by default every
       send enqueues on [net] and every frame comes from [pool];
       [set_outbox] overrides both — the sharded router so each node
       allocates from its owning shard's pool and cross-shard sends go
       through mailboxes, Fault.Runner with the reliable transport.  Plain
       closures, installed before any domain is spawned and never
       mutated afterwards — the sequential hot path pays one indirect
       call and zero allocation.  [out_send] takes the channel id
       (slot [i] of node [u] is channel [slot_base u + i]). *)
    mutable out_send : int -> Frame.t -> unit;
    mutable out_pool : int -> Frame.pool;
  }

  (* Byte-backed booleans. *)
  let bget b i = Bytes.unsafe_get b i <> '\000'
  let bset b i v = Bytes.unsafe_set b i (if v then '\001' else '\000')

  (* ------------------------------------------------------------------ *)
  (* Slot arithmetic.                                                   *)

  (* Position of neighbour [v] among [u]'s slots, -1 if not a neighbour. *)
  let slot_in c a u v =
    let a = a.nbr and base = c.slot_base.(u) in
    let lo = ref 0 and hi = ref (c.deg.(u) - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let w = Array.unsafe_get a (base + mid) in
      if w = v then begin
        found := mid;
        lo := !hi + 1
      end
      else if w < v then lo := mid + 1
      else hi := mid - 1
    done;
    !found

  let slot t u v = slot_in t.c t.a u v

  let nbr t u i = t.a.nbr.(t.c.slot_base.(u) + i)

  (* The [k]-th requester slot, [k] in [0 .. deg], in ascending order of
     node id: self (requester slot [deg]) sits at its sorted position —
     the iteration order of the old [IntSet.elements pndg] snapshot in
     T4.  Walks are plain [for] loops over [k]: no closure. *)
  let requester_slot t u k =
    let sp = t.c.self_pos.(u) in
    if k < sp then k else if k = sp then t.c.deg.(u) else k - 1

  let set_taken t u i flag =
    let s = t.c.slot_base.(u) + i in
    if bget t.a.taken s <> flag then begin
      bset t.a.taken s flag;
      t.c.tkn_count.(u) <-
        (if flag then t.c.tkn_count.(u) + 1 else t.c.tkn_count.(u) - 1)
    end

  let set_granted t u i flag =
    let s = t.c.slot_base.(u) + i in
    if bget t.a.granted s <> flag then begin
      bset t.a.granted s flag;
      t.c.grntd_count.(u) <-
        (if flag then t.c.grntd_count.(u) + 1 else t.c.grntd_count.(u) - 1)
    end

  (* ------------------------------------------------------------------ *)
  (* Cut tracking: which subtree roots are unreachable.                 *)

  (* Neighbour slots that participate in lease coverage: not crashed and
     not detached.  Detached slots differ from down ones in one crucial
     way — they contribute no cut entries, so combines over the active
     tree stay exact. *)
  let up_count t u = t.c.deg.(u) - t.c.down_count.(u) - t.c.det_count.(u)

  let refresh_any_cut t u =
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    let any = ref (t.c.down_count.(u) > 0) in
    if not !any then
      for j = 0 to d - 1 do
        if not (IntSet.is_empty t.a.subcut.(sb + j)) then any := true
      done;
    bset t.c.any_cut u !any

  (* Unreachable subtree roots visible from [u], excluding slot [excl]
     (the direction a report travels; -1 for a local combine): crashed
     neighbours contribute themselves, live ones their reported cut.
     [] — allocation-free — whenever [any_cut] is unset, i.e. always in
     fault-free runs. *)
  let cut_to t u excl =
    if not (bget t.c.any_cut u) then []
    else begin
      let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
      let s = ref IntSet.empty in
      for j = 0 to d - 1 do
        if j <> excl then
          if bget t.a.down (sb + j) then s := IntSet.add t.a.nbr.(sb + j) !s
          else if not (IntSet.is_empty t.a.subcut.(sb + j)) then
            s := IntSet.union t.a.subcut.(sb + j) !s
      done;
      IntSet.elements !s
    end

  (* Adopt the cut a neighbour reported alongside a response/update (the
     latest report replaces the previous one for that subtree). *)
  let set_subcut t u i cut =
    let s = t.c.slot_base.(u) + i in
    match cut with
    | [] ->
      if not (IntSet.is_empty t.a.subcut.(s)) then begin
        t.a.subcut.(s) <- IntSet.empty;
        refresh_any_cut t u
      end
    | l ->
      t.a.subcut.(s) <- IntSet.of_list l;
      bset t.c.any_cut u true

  (* ------------------------------------------------------------------ *)
  (* Views for the policy layer.                                        *)

  (* The accessors every policy view shares: one record per system,
     reading the slot arenas of the node and slot it is handed. *)
  let policy_ops c a =
    {
      Policy.taken = (fun u i -> bget a.taken (c.slot_base.(u) + i));
      other_grantee =
        (fun u i ->
          c.grntd_count.(u) > 1
          || c.grntd_count.(u) = 1
             && not (bget a.granted (c.slot_base.(u) + i)));
      uaw_size = (fun u i -> Ulog.count a.log (c.slot_base.(u) + i));
    }

  let node_view t u = t.c.view.(u)

  (* The paper's gval(): local value folded with all neighbour caches.
     Cached between writes; the recomputation folds in ascending slot
     order, exactly the old per-call fold, so cached and uncached values
     are bit-identical even for floats. *)
  let gval_of t u =
    if bget t.c.gval_dirty u then begin
      let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
      (* accumulate in the cache cell itself: a [ref] here would be a
         minor allocation per recomputation *)
      t.c.gval_cache.(u) <- t.c.value.(u);
      for i = 0 to d - 1 do
        t.c.gval_cache.(u) <- Op.combine t.c.gval_cache.(u) t.a.aval.(sb + i)
      done;
      bset t.c.gval_dirty u false
    end;
    t.c.gval_cache.(u)

  (* The paper's subval(w): gval() excluding the cache for [w] (given
     here by slot).  O(1) via the group inverse when the operator has
     one; otherwise the old fold, skipping slot [i]. *)
  let subval t u i =
    let sb = t.c.slot_base.(u) in
    match Op.inverse with
    | Some sub -> sub (gval_of t u) t.a.aval.(sb + i)
    | None ->
      let x = ref t.c.value.(u) in
      for j = 0 to t.c.deg.(u) - 1 do
        if j <> i then x := Op.combine !x t.a.aval.(sb + j)
      done;
      !x

  (* ------------------------------------------------------------------ *)
  (* Ghost actions (Figure 6).                                          *)

  let gwrites_push t u w =
    let cap = Array.length t.c.gwrites.(u) in
    if t.c.gwrites_len.(u) = cap then begin
      let a = Array.make (max 16 (2 * cap)) w in
      Array.blit t.c.gwrites.(u) 0 a 0 cap;
      t.c.gwrites.(u) <- a
    end;
    t.c.gwrites.(u).(t.c.gwrites_len.(u)) <- w;
    t.c.gwrites_len.(u) <- t.c.gwrites_len.(u) + 1

  let ghost_append_write t u (w : Op.t Ghost.write) =
    if t.ghost then begin
      t.c.glog.(u) <- Ghost.Write w :: t.c.glog.(u);
      gwrites_push t u w;
      t.c.last_write.(u).(w.wnode) <- w.windex;
      match t.tel with
      | None -> ()
      | Some tel ->
        Telemetry.Metrics.gauge_set tel.ghost_log t.c.gwrites_len.(u)
    end

  (* log := log . (wlog_w - log): append the writes of the received wlog
     that are not yet in our log, preserving their order.  Every log
     holds, per origin, a prefix of that origin's write sequence (writes
     are indexed densely and merged in order), so membership is just an
     index comparison against [last_write]. *)
  let ghost_merge t u wlog_w =
    if t.ghost then
      List.iter
        (fun (w : Op.t Ghost.write) ->
          if w.windex > t.c.last_write.(u).(w.wnode) then
            ghost_append_write t u w)
        wlog_w

  let ghost_recentwrites t u =
    if t.ghost then
      List.init (Tree.n_nodes t.tree) (fun v -> (v, t.c.last_write.(u).(v)))
    else []

  (* ------------------------------------------------------------------ *)
  (* Frame encoding.  The senders below are the one encoder and         *)
  (* [handler] the one decoder.  Payload layouts (all fields            *)
  (* little-endian, after the 18-byte header; an "x field" is a u16     *)
  (* byte length followed by [Op.encode] bytes):                        *)
  (*                                                                    *)
  (*   Probe      (empty)                                               *)
  (*   Response   flag u8, report                                       *)
  (*   Update     id i64, report                                        *)
  (*   Release    u32 count + i64 ids ascending (first id = min)        *)
  (*   Hello      epoch i64                                             *)
  (*                                                                    *)
  (*   report     x field (the subtree aggregate), cut (u16 count +     *)
  (*              i64 ids), wlog (u32 count + per write: wnode i64,     *)
  (*              windex i64, x field)                                  *)
  (*                                                                    *)
  (* Release carries the paper's whole S although the receiver reads   *)
  (* only min S, so [release(S)] stays as the paper writes it, at no    *)
  (* cost in messages.  [Frame.set_length] precedes every write and     *)
  (* [Frame.buf] is re-fetched after it — growth swaps the backing      *)
  (* buffer.  In the fault-free, ghost-free steady state every variable *)
  (* section writes a zero count, so encoding allocates nothing.        *)

  let put_x f pos v =
    let ws = Op.wire_size v in
    Frame.set_length f (pos + 2 + ws);
    let b = Frame.buf f in
    Frame.set_u16 b pos ws;
    ignore (Op.encode b (pos + 2) v);
    pos + 2 + ws

  let put_cut_list f pos ids =
    match ids with
    | [] ->
      (* hot case split off so it allocates nothing *)
      Frame.set_length f (pos + 2);
      Frame.set_u16 (Frame.buf f) pos 0;
      pos + 2
    | _ ->
      let n = List.length ids in
      Frame.set_length f (pos + 2 + (8 * n));
      let b = Frame.buf f in
      Frame.set_u16 b pos n;
      let p = ref (pos + 2) in
      List.iter
        (fun id ->
          Frame.set_int b !p id;
          p := !p + 8)
        ids;
      !p

  (* Ship to neighbour slot [i] only the suffix of the write log it has
     not been sent yet (delta encoding — sound because channels are FIFO
     and the receiver merges every wlog it gets, so its log already
     contains each previously shipped prefix), streamed straight from
     the gwrites column with no intermediate list. *)
  let put_wlog_shipped t u i f pos =
    if not t.ghost then begin
      Frame.set_length f (pos + 4);
      Frame.set_u32 (Frame.buf f) pos 0;
      pos + 4
    end
    else begin
      let s = t.c.slot_base.(u) + i in
      let start = t.a.shipped.(s) and stop = t.c.gwrites_len.(u) in
      t.a.shipped.(s) <- stop;
      let g = t.c.gwrites.(u) in
      Frame.set_length f (pos + 4);
      Frame.set_u32 (Frame.buf f) pos (stop - start);
      let p = ref (pos + 4) in
      for j = start to stop - 1 do
        let w = g.(j) in
        Frame.set_length f (!p + 16);
        let b = Frame.buf f in
        Frame.set_int b !p w.Ghost.wnode;
        Frame.set_int b (!p + 8) w.Ghost.windex;
        p := put_x f (!p + 16) w.Ghost.warg
      done;
      !p
    end

  (* Every sender addresses neighbour slot [i] of [u]: the frame is
     counted in the ledger and goes onto channel [slot_base u + i] with
     no search. *)
  let send_frame t u i f =
    let s = t.c.slot_base.(u) + i in
    let l = (s * ledger_kinds) + Frame.kind f in
    t.ledger.(l) <- t.ledger.(l) + 1;
    t.out_send s f

  let send_probe t u i =
    let f = Frame.alloc (t.out_pool u) in
    Frame.set_kind f k_probe;
    send_frame t u i f

  (* Announce [u]'s current epoch to slot [i]. *)
  let send_hello t u i =
    let f = Frame.alloc (t.out_pool u) in
    Frame.set_kind f k_hello;
    Frame.set_length f (hs + 8);
    Frame.set_int (Frame.buf f) hs t.c.epoch.(u);
    send_frame t u i f

  let report_at k = if k = k_update then hs + 8 else hs + 1

  (* A Response ([k_response], [v] = the flag byte) or an Update
     ([k_update], [v] = the update id) to neighbour slot [i]. *)
  let send_report t u i k v =
    let f = Frame.alloc (t.out_pool u) in
    Frame.set_kind f k;
    Frame.set_length f (report_at k);
    if k = k_update then Frame.set_int (Frame.buf f) hs v
    else Frame.set_u8 (Frame.buf f) hs v;
    let pos = put_x f (report_at k) (subval t u i) in
    let pos = put_cut_list f pos (cut_to t u i) in
    ignore (put_wlog_shipped t u i f pos);
    send_frame t u i f

  (* Encoded before [Ulog.reset]: the ids are the slot's [uaw], decoded
     from the head, so they go out ascending and the receiver's minimum
     is the first id. *)
  let send_release t u i =
    let s = t.c.slot_base.(u) + i in
    let len = Ulog.count t.a.log s in
    let f = Frame.alloc (t.out_pool u) in
    Frame.set_kind f k_release;
    Frame.set_length f (hs + 4 + (8 * len));
    Frame.set_u32 (Frame.buf f) hs len;
    Ulog.write_ids t.a.log s (Frame.buf f) (hs + 4);
    send_frame t u i f

  (* Cold decode helpers (nonzero counts only under faults/ghost). *)
  let decode_ids b pos n =
    let rec go j acc =
      if j < 0 then acc else go (j - 1) (Frame.get_int b (pos + (8 * j)) :: acc)
    in
    go (n - 1) []

  let decode_wlog b pos n =
    let p = ref pos in
    let acc = ref [] in
    for _ = 1 to n do
      let wnode = Frame.get_int b !p in
      let windex = Frame.get_int b (!p + 8) in
      let xl = Frame.get_u16 b (!p + 16) in
      let warg = Op.decode b (!p + 18) xl in
      acc := { Ghost.wnode; windex; warg } :: !acc;
      p := !p + 18 + xl
    done;
    List.rev !acc

  (* ------------------------------------------------------------------ *)
  (* Procedures of Figure 1.                                            *)

  (* sendprobes(w), [w] given as its requester slot [r] ([deg] for the
     node itself): mark [w] pending and probe every neighbour whose
     subtree aggregate is neither leased ([taken]) nor already being
     probed ([probed], the paper's sntprobes() membership counter). *)
  let count_reprobe t u i =
    let s = t.c.slot_base.(u) + i in
    if bget t.a.resync s then begin
      bset t.a.resync s false;
      match t.tel with
      | None -> ()
      | Some tel -> Telemetry.Metrics.incr tel.recovery_reprobes
    end

  let sendprobes t u r =
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    bset t.a.pndg (t.c.req_base.(u) + r) true;
    for i = 0 to d - 1 do
      if
        i <> r
        && (not (bget t.a.taken (sb + i)))
        && t.a.probed.(sb + i) = 0
        && (not (bget t.a.down (sb + i)))
        && not (bget t.a.det (sb + i))
      then begin
        count_reprobe t u i;
        send_probe t u i
      end
    done

  (* Record the snt set for requester slot [r]: every neighbour slot not
     covered by a taken lease, except [exclude] (the requester itself,
     for probes from a neighbour; -1 for a local combine). *)
  let set_snt_mask t u r ~exclude =
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    let mb = t.c.msk_base.(u) + (r * d) in
    let ri = t.c.req_base.(u) + r in
    for i = 0 to d - 1 do
      if
        i <> exclude
        && (not (bget t.a.taken (sb + i)))
        && (not (bget t.a.down (sb + i)))
        && not (bget t.a.det (sb + i))
      then begin
        bset t.a.snt (mb + i) true;
        t.a.snt_count.(ri) <- t.a.snt_count.(ri) + 1;
        t.a.probed.(sb + i) <- t.a.probed.(sb + i) + 1
      end
    done

  (* forwardupdates(w, id): push fresh subtree aggregates to every
     grantee except the one at slot [ws] (-1 for a local write). *)
  let forwardupdates t u ws id =
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    match t.tel with
    | None ->
      for i = 0 to d - 1 do
        if bget t.a.granted (sb + i) && i <> ws then
          send_report t u i k_update id
      done
    | Some tel ->
      let fanout = ref 0 in
      for i = 0 to d - 1 do
        if bget t.a.granted (sb + i) && i <> ws then begin
          send_report t u i k_update id;
          incr fanout
        end
      done;
      Telemetry.Metrics.observe tel.update_fanout !fanout

  (* Out-of-line lease-lifecycle observers (see Simul.Network for the
     same pattern): hot paths pay one [t.obs] branch when telemetry is
     off. *)
  let observe_grant t u w grant =
    (match t.tel with
    | None -> ()
    | Some tel ->
      Telemetry.Metrics.incr (if grant then tel.lease_set else tel.lease_deny));
    if t.recording then
      Telemetry.Sink.record t.sink
        (if grant then
           Telemetry.Sink.Lease_set
             { time = t.clock (); shard = 0; granter = u; grantee = w }
         else
           Telemetry.Sink.Lease_denied
             { time = t.clock (); shard = 0; granter = u; grantee = w })

  let observe_break t u ~granter =
    (match t.tel with
    | None -> ()
    | Some tel -> Telemetry.Metrics.incr tel.lease_break);
    if t.recording then
      Telemetry.Sink.record t.sink
        (Telemetry.Sink.Lease_broken
           { time = t.clock (); shard = 0; granter; grantee = u })

  (* sendresponse(w), [w] at slot [i]: answer a probe; grant a lease iff
     every other neighbour is covered by a taken lease and the policy
     agrees. *)
  let sendresponse t u i =
    let sb = t.c.slot_base.(u) in
    (* every neighbour other than [w] that is still up holds a taken
       lease (crashed subtrees are excluded from coverage — their
       absence is reported via [cut] instead) *)
    let others_covered =
      t.c.tkn_count.(u) - (if bget t.a.taken (sb + i) then 1 else 0)
      = up_count t u - 1
    in
    if others_covered then begin
      let p = t.c.policy.(u) in
      let grant = p.Policy.set_lease (node_view t u) ~target:i in
      set_granted t u i grant;
      if t.obs then observe_grant t u (nbr t u i) grant
    end;
    send_report t u i k_response (if bget t.a.granted (sb + i) then 1 else 0)

  let isgoodforrelease t u i =
    t.c.grntd_count.(u) = 0
    || t.c.grntd_count.(u) = 1 && bget t.a.granted (t.c.slot_base.(u) + i)

  (* forwardrelease(): break every eligible taken lease the policy wants
     to drop, sending back the accumulated unacknowledged-update ids. *)
  let forwardrelease t u =
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    for i = 0 to d - 1 do
      if
        isgoodforrelease t u i
        && bget t.a.taken (sb + i)
        &&
        let p = t.c.policy.(u) in
        p.Policy.break_lease (node_view t u) ~target:i
      then begin
        set_taken t u i false;
        send_release t u i;
        Ulog.reset t.a.log (sb + i);
        (* The lease on neighbour [v]'s subtree was granted by [v] to
           this node; breaking it is the grantee's move. *)
        if t.obs then observe_break t u ~granter:t.a.nbr.(sb + i)
      end
    done

  (* onrelease(w, S), [w] at slot [ws]: trim each uaw[v] down to the
     update ids that were forwarded to [w] within the released window,
     then let the policy react, then try to propagate the release.

     The released window arrives pre-digested: all [onrelease] ever
     consumed of S was its minimum, and the wire format puts the ids in
     ascending order, so the hot decode hands over just [has_ids] and
     the first id.

     The paper's beta — the earliest-received sntupdate forwarded at or
     after min S — is the first forwarded record of the slot's update
     log with sntid >= min S: per channel, ids and sntids both increase
     in log order. *)
  let onrelease t u ws ~has_ids ~min_id =
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    (if has_ids then
       for i = 0 to d - 1 do
         if i <> ws && bget t.a.taken (sb + i) then begin
           let s = sb + i in
           if Ulog.last_snt t.a.log s < min_id then
             (* A empty: every update from this neighbour was forwarded
                before the released window, i.e. consumed downstream by a
                combine — nothing left unaccounted. *)
             Ulog.reset t.a.log s
           else if min_id > Ulog.mark t.a.log s then Ulog.trim t.a.log s min_id
           (* else beta is at or below the watermark: its id was at most
              some earlier min uaw, so the filter {>= beta.rcvid} keeps
              all of uaw — a no-op. *)
         end
       done);
    for i = 0 to d - 1 do
      if i <> ws && bget t.a.taken (sb + i) && isgoodforrelease t u i then
        let p = t.c.policy.(u) in
        p.Policy.release_policy (node_view t u) ~target:i
    done;
    forwardrelease t u

  let newid t u =
    t.c.upcntr.(u) <- t.c.upcntr.(u) + 1;
    t.c.upcntr.(u)

  (* The column's filler: no combine waits there. *)
  let no_k : Op.t -> unit = fun _ -> ()

  (* No combine waits at [u]. *)
  let idle t u =
    t.c.pending1.(u) == no_k
    && match t.c.pending.(u) with [] -> true | _ :: _ -> false

  (* One combine completes: its gather entry and request count (exact
     aggregates only); its span and continuation follow. *)
  let settle t u value exact =
    if exact then begin
      if t.ghost then
        t.c.glog.(u) <-
          Ghost.Combine
            {
              cnode = u;
              cindex = t.c.completed.(u);
              cvalue = value;
              crecent = ghost_recentwrites t u;
            }
          :: t.c.glog.(u);
      t.c.completed.(u) <- t.c.completed.(u) + 1
    end

  (* Fire the queued continuations [ks] (newest first) oldest first,
     each after its span from [spans] (same order; [] when no sink
     records): the recursion reaches the oldest before firing anything,
     so no reversed copy is built. *)
  let rec fire_queued t u value cut exact ks spans =
    match ks with
    | [] -> ()
    | k :: older ->
      fire_queued t u value cut exact older
        (match spans with [] -> [] | _ :: s -> s);
      settle t u value exact;
      (match spans with
      | [] -> ()
      | span :: _ ->
        Telemetry.Span.finish t.sink ~shard:0 ~clock:t.clock ~node:u
          ~name:"combine" ~id:span);
      k value ~cut

  (* Completion of a local combine: log the matching gather (ghost) and
     fire every pending continuation with the global aggregate, oldest
     first.

     With unreachable subtrees the aggregate is partial: the value
     covers only the reachable component and the continuation gets the
     cut (the roots of the missing subtrees).  Partial combines are a
     degraded read outside the consistency contract, so they are not
     ghost-logged and do not advance [completed] — the causal checker
     judges exact results only. *)
  let complete_combines t u =
    let value = gval_of t u in
    let cut = cut_to t u (-1) in
    let exact = cut = [] in
    (if not exact then
       match t.tel with
       | None -> ()
       | Some tel -> Telemetry.Metrics.incr tel.partial_combines);
    (* detach the waiting combines first: a continuation may issue the
       node's next combine *)
    let k1 = t.c.pending1.(u) in
    let ks = t.c.pending.(u) and spans = t.c.pending_spans.(u) in
    t.c.pending1.(u) <- no_k;
    t.c.pending.(u) <- [];
    t.c.pending_spans.(u) <- [];
    if k1 != no_k then begin
      settle t u value exact;
      k1 value
    end;
    fire_queued t u value cut exact ks spans

  (* ------------------------------------------------------------------ *)
  (* Transitions.  Each takes the node and, for T3-T7, the slot of the  *)
  (* neighbour [w] the message came from; [handler] finds it once.      *)

  (* T1: combine request at [u], its continuation already waiting. *)
  let t1_combine t u =
    let p = t.c.policy.(u) in
    p.Policy.on_combine (node_view t u);
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    for i = 0 to d - 1 do
      if bget t.a.taken (sb + i) then Ulog.reset t.a.log (sb + i)
    done;
    if not (bget t.a.pndg (t.c.req_base.(u) + d)) then begin
      if t.c.tkn_count.(u) = up_count t u then complete_combines t u
      else begin
        sendprobes t u d;
        set_snt_mask t u d ~exclude:(-1)
      end
    end

  (* T2: write request at [u]. *)
  let t2_write t u arg =
    if t.recording then
      Telemetry.Sink.record t.sink
        (Telemetry.Sink.Mark
           { time = t.clock (); shard = 0; node = u; name = "write" });
    t.c.value.(u) <- arg;
    bset t.c.gval_dirty u true;
    if t.ghost then
      ghost_append_write t u
        { Ghost.wnode = u; windex = t.c.completed.(u); warg = arg };
    t.c.completed.(u) <- t.c.completed.(u) + 1;
    let p = t.c.policy.(u) in
    p.Policy.on_write (node_view t u);
    if t.c.grntd_count.(u) > 0 then begin
      let id = newid t u in
      forwardupdates t u (-1) id
    end

  (* T3: receive probe from [w], at slot [r]. *)
  let t3_probe t u r =
    let p = t.c.policy.(u) in
    p.Policy.probe_rcvd (node_view t u) ~from:r;
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    for i = 0 to d - 1 do
      if bget t.a.taken (sb + i) && i <> r then Ulog.reset t.a.log (sb + i)
    done;
    if not (bget t.a.pndg (t.c.req_base.(u) + r)) then begin
      let missing =
        up_count t u - t.c.tkn_count.(u)
        - (if bget t.a.taken (sb + r) then 0 else 1)
      in
      if missing = 0 then sendresponse t u r
      else begin
        sendprobes t u r;
        set_snt_mask t u r ~exclude:r
      end
    end

  (* The neighbour at slot [sw] answered, or can no longer answer, the
     probe requester slot [r] sent it, if any: strike it from [snt r],
     and finish [r]'s request — respond, or complete the local combines
     — when it was the last outstanding. *)
  let strike_probe t u r sw =
    let d = t.c.deg.(u) in
    let ri = t.c.req_base.(u) + r in
    let mi = t.c.msk_base.(u) + (r * d) + sw in
    if bget t.a.pndg ri && bget t.a.snt mi then begin
      bset t.a.snt mi false;
      t.a.snt_count.(ri) <- t.a.snt_count.(ri) - 1;
      let s = t.c.slot_base.(u) + sw in
      t.a.probed.(s) <- t.a.probed.(s) - 1;
      if t.a.snt_count.(ri) = 0 then begin
        bset t.a.pndg ri false;
        if r = d then complete_combines t u else sendresponse t u r
      end
    end

  (* T4: receive response(x, flag, cut) from [w], at slot [sw]. *)
  let t4_response t u sw x flag cut wlog_w =
    let p = t.c.policy.(u) in
    p.Policy.response_rcvd (node_view t u) ~flag ~from:sw;
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    t.a.aval.(sb + sw) <- x;
    bset t.c.gval_dirty u true;
    bset t.a.resync (sb + sw) false;
    set_subcut t u sw cut;
    ghost_merge t u wlog_w;
    set_taken t u sw flag;
    for k = 0 to d do
      strike_probe t u (requester_slot t u k) sw
    done;
    (* Recovery refresh: this response re-reads a subtree that went
       through a crash; grantees upstream still cache the pre-crash
       aggregate (or a cut excluding it), and no write will push it to
       them.  Re-originate an update, as a write would (T2). *)
    if bget t.a.refresh (sb + sw) then begin
      bset t.a.refresh (sb + sw) false;
      if t.c.grntd_count.(u) > 0 then begin
        let id = newid t u in
        forwardupdates t u sw id
      end
    end

  (* T5: receive update(x, id, cut) from [w], at slot [sw]. *)
  let t5_update t u sw x id cut wlog_w =
    let p = t.c.policy.(u) in
    p.Policy.update_rcvd (node_view t u) ~from:sw;
    let sb = t.c.slot_base.(u) in
    t.a.aval.(sb + sw) <- x;
    bset t.c.gval_dirty u true;
    set_subcut t u sw cut;
    ghost_merge t u wlog_w;
    let other_grantees =
      t.c.grntd_count.(u) > 1
      || (t.c.grntd_count.(u) = 1 && not (bget t.a.granted (sb + sw)))
    in
    if other_grantees then begin
      let nid = newid t u in
      Ulog.append t.a.log (sb + sw) ~id ~snt:nid;
      forwardupdates t u sw nid
    end
    else begin
      Ulog.append t.a.log (sb + sw) ~id ~snt:0;
      forwardrelease t u
    end

  (* Releases [u] has sent, summed over its slots' ledger rows. *)
  let releases_from t u =
    let sb = t.c.slot_base.(u) and acc = ref 0 in
    for i = 0 to t.c.deg.(u) - 1 do
      acc := !acc + t.ledger.(((sb + i) * ledger_kinds) + k_release)
    done;
    !acc

  (* T6: receive release(S) from [w], at slot [sw] — S arrives as its
     cardinality flag and minimum (see [onrelease]). *)
  let t6_release t u sw ~has_ids ~min_id =
    let p = t.c.policy.(u) in
    p.Policy.release_rcvd (node_view t u) ~from:sw;
    set_granted t u sw false;
    match t.tel with
    | None -> onrelease t u sw ~has_ids ~min_id
    | Some tel ->
      (* Cascade width: releases this node forwards while handling one
         received release (chains of these per-hop forwards are the
         release cascades of a cooling subtree). *)
      let before = releases_from t u in
      onrelease t u sw ~has_ids ~min_id;
      Telemetry.Metrics.observe tel.release_cascade
        (releases_from t u - before)

  (* T7: receive hello(epoch) from [w], at slot [i] — the neighbour
     announces a new incarnation after a restart.  Any state involving
     its previous incarnation is void: leases both ways, its cached
     aggregate, unacknowledged updates, the forwarded-update log, its
     reported cut, and the shipped-ghost-prefix watermark (the session
     teardown may have eaten frames already marked shipped, so the full
     log is reshipped; the receiver's merge deduplicates).  Requests
     still pending here were counting on the old incarnation's lease or
     on its down-ness, so the fresh subtree is re-probed on their
     behalf.  Reply with our own epoch so the handshake converges from
     either side (a repeated epoch is ignored, which terminates it). *)
  let t7_hello t u i epoch =
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    if epoch > t.a.nbr_epoch.(sb + i) then begin
      t.a.nbr_epoch.(sb + i) <- epoch;
      if bget t.a.down (sb + i) then begin
        bset t.a.down (sb + i) false;
        t.c.down_count.(u) <- t.c.down_count.(u) - 1;
        refresh_any_cut t u
      end;
      set_taken t u i false;
      set_granted t u i false;
      t.a.aval.(sb + i) <- Op.identity;
      bset t.c.gval_dirty u true;
      Ulog.clear t.a.log (sb + i);
      set_subcut t u i [];
      t.a.shipped.(sb + i) <- 0;
      bset t.a.resync (sb + i) true;
      bset t.a.refresh (sb + i) true;
      let probed_before = t.a.probed.(sb + i) in
      for k = 0 to d do
        let r = requester_slot t u k in
        let ri = t.c.req_base.(u) + r in
        let mi = t.c.msk_base.(u) + (r * d) + i in
        if r <> i && bget t.a.pndg ri && not (bget t.a.snt mi) then begin
          bset t.a.snt mi true;
          t.a.snt_count.(ri) <- t.a.snt_count.(ri) + 1;
          t.a.probed.(sb + i) <- t.a.probed.(sb + i) + 1
        end
      done;
      if t.a.probed.(sb + i) > probed_before && probed_before = 0 then begin
        count_reprobe t u i;
        send_probe t u i
      end
      else if t.a.probed.(sb + i) = 0 && t.c.grntd_count.(u) > 0 then begin
        (* No request is waiting on this subtree, but grantees cache it:
           pull the fresh value with a bare probe (no snt bookkeeping —
           its response completes nothing, it only feeds the refresh
           push above) so their caches heal without waiting for the next
           write below the recovered node. *)
        count_reprobe t u i;
        send_probe t u i
      end;
      send_hello t u i
    end

  (* ------------------------------------------------------------------ *)
  (* Crash and recovery (perfect failure detector model: neighbours     *)
  (* learn of a crash synchronously; in-flight messages of the dead     *)
  (* incarnation are discarded by the transport's session teardown).    *)

  (* Forget the session with the slot-[j] neighbour, lost to a crash or
     a departure.  [t7_hello] and [wipe_volatile] keep resets of their
     own: they set different values. *)
  let void_slot t v j =
    let s = t.c.slot_base.(v) + j in
    set_taken t v j false;
    set_granted t v j false;
    t.a.aval.(s) <- Op.identity;
    bset t.c.gval_dirty v true;
    Ulog.clear t.a.log s;
    t.a.subcut.(s) <- IntSet.empty;
    t.a.shipped.(s) <- 0;
    bset t.a.resync s false;
    bset t.a.refresh s false;
    t.a.nbr_epoch.(s) <- -1

  (* Cancel every probe exchange with the lost slot-[j] neighbour: as a
     requester it gets no response, and probes sent to it are struck
     from the outstanding sets, completing the requests that waited on
     them rather than hanging. *)
  let cancel_exchanges t v j =
    let sb = t.c.slot_base.(v) and d = t.c.deg.(v) in
    (* the lost requester's pending probe set *)
    if bget t.a.pndg (t.c.req_base.(v) + j) then begin
      let mb = t.c.msk_base.(v) + (j * d) in
      for i = 0 to d - 1 do
        if bget t.a.snt (mb + i) then begin
          bset t.a.snt (mb + i) false;
          t.a.probed.(sb + i) <- t.a.probed.(sb + i) - 1
        end
      done;
      t.a.snt_count.(t.c.req_base.(v) + j) <- 0;
      bset t.a.pndg (t.c.req_base.(v) + j) false
    end;
    (* probes sent to the lost node can never be answered (its own
       requester slot is no longer pending, so the walk skips it) *)
    for k = 0 to d do
      strike_probe t v (requester_slot t v k) j
    done

  (* A neighbour of the crashed node (slot [j] here) marks it down,
     voids the slot and cancels the exchanges — completing requests
     partially, since the cut now contains the dead node. *)
  let notify_down t v j =
    let s = t.c.slot_base.(v) + j in
    if not (bget t.a.down s) then begin
      bset t.a.down s true;
      t.c.down_count.(v) <- t.c.down_count.(v) + 1;
      bset t.c.any_cut v true;
      void_slot t v j;
      cancel_exchanges t v j
    end

  (* Volatile protocol state at [node] is lost (crash) or surrendered
     (depart): leases both ways, cached aggregates, probe bookkeeping,
     pending combines.  [value] survives (the node's input is durable —
     rereading it on restart is the recovery model), as do the ghost log
     and [completed] (analysis-only shadow state, kept so the causal
     checker can still account for pre-crash history) — and the [det]
     bits, which are membership knowledge, not protocol state. *)
  let wipe_volatile t node =
    let sb = t.c.slot_base.(node) and d = t.c.deg.(node) in
    Bytes.fill t.a.taken sb d '\000';
    t.c.tkn_count.(node) <- 0;
    Bytes.fill t.a.granted sb d '\000';
    t.c.grntd_count.(node) <- 0;
    Array.fill t.a.aval sb d Op.identity;
    bset t.c.gval_dirty node true;
    for i = 0 to d - 1 do
      Ulog.clear t.a.log (sb + i);
      t.a.subcut.(sb + i) <- IntSet.empty;
      t.a.shipped.(sb + i) <- 0;
      t.a.nbr_epoch.(sb + i) <- -1;
      t.a.probed.(sb + i) <- 0
    done;
    Bytes.fill t.a.down sb d '\000';
    Bytes.fill t.a.resync sb d '\000';
    Bytes.fill t.a.refresh sb d '\000';
    t.c.down_count.(node) <- 0;
    bset t.c.any_cut node false;
    Bytes.fill t.a.pndg (t.c.req_base.(node)) (d + 1) '\000';
    Bytes.fill t.a.snt (t.c.msk_base.(node)) (d * (d + 1)) '\000';
    Array.fill t.a.snt_count (t.c.req_base.(node)) (d + 1) 0;
    t.c.upcntr.(node) <- 0;
    (* pending combines die with the node; close their spans *)
    t.c.pending1.(node) <- no_k;
    t.c.pending.(node) <- [];
    List.iter
      (fun span ->
        Telemetry.Span.finish t.sink ~shard:0 ~clock:t.clock
          ~node ~name:"combine" ~id:span)
      t.c.pending_spans.(node);
    t.c.pending_spans.(node) <- []

  let crash t ~node =
    if not (bget t.c.alive node) then
      invalid_arg "Mechanism.crash: node already down";
    if not (bget t.c.att node) then
      invalid_arg "Mechanism.crash: node is detached";
    bset t.c.alive node false;
    wipe_volatile t node;
    let sb = t.c.slot_base.(node) and d = t.c.deg.(node) in
    for i = 0 to d - 1 do
      let v = t.a.nbr.(sb + i) in
      if bget t.c.alive v && not (bget t.a.det (sb + i)) then
        notify_down t v (slot t v node)
    done

  let restart t ~node =
    if bget t.c.alive node then invalid_arg "Mechanism.restart: node is up";
    bset t.c.alive node true;
    t.c.epoch.(node) <- t.c.epoch.(node) + 1;
    let sb = t.c.slot_base.(node) and d = t.c.deg.(node) in
    (* perfect failure detector: learn which neighbours are down right
       now, and announce the new incarnation to the live ones (detached
       neighbours hold no session to resynchronize) *)
    for i = 0 to d - 1 do
      let v = t.a.nbr.(sb + i) in
      if bget t.a.det (sb + i) then ()
      else if bget t.c.alive v then begin
        bset t.a.resync (sb + i) true;
        send_hello t node i
      end
      else begin
        bset t.a.down (sb + i) true;
        t.c.down_count.(node) <- t.c.down_count.(node) + 1
      end
    done;
    bset t.c.any_cut node (t.c.down_count.(node) > 0)

  (* ------------------------------------------------------------------ *)
  (* Dynamic membership (churn).  The capacity tree is fixed; [att]     *)
  (* tracks which nodes are currently part of the active aggregation    *)
  (* tree.  Legal moves mirror {!Tree.Dyn}: only an active leaf of the  *)
  (* active subtree departs (its unique attached neighbour is the       *)
  (* handoff point), and a detached node joins back at any attached     *)
  (* neighbour.  Membership changes are fenced by the same epoch        *)
  (* machinery as crash recovery: a join bumps the epoch and runs the   *)
  (* T7 Hello resync, so stale frames of the previous attachment are    *)
  (* discarded by the transport and any leftover neighbour state is     *)
  (* voided on receipt.                                                 *)

  (* Neighbour side of a departure: mark slot [j] detached and void it
     (the departed subtree's aggregate is folded into the local value by
     the handoff write, so the cache must drop to identity).  Unlike
     [notify_down] this contributes no cut — the remaining tree is
     whole. *)
  let detach_slot t v j =
    let s = t.c.slot_base.(v) + j in
    bset t.a.det s true;
    t.c.det_count.(v) <- t.c.det_count.(v) + 1;
    if bget t.a.down s then begin
      bset t.a.down s false;
      t.c.down_count.(v) <- t.c.down_count.(v) - 1
    end;
    void_slot t v j;
    refresh_any_cut t v

  (* Depart: epoch-fenced handoff of an active leaf to its unique
     attached neighbour [h].  Conservation and causality are carried by
     a two-write handshake on the ghost log: the departing node closes
     its own write history with an identity write (so every future
     frontier names it exactly once), then its full write log is merged
     into [h] and [h] absorbs the departing durable value with a real
     write (T2) — the aggregate over the active tree is unchanged, and
     the causal checker sees both writes in every subsequent gather. *)
  let depart t ~node =
    if not (bget t.c.alive node) then
      invalid_arg (Printf.sprintf "Mechanism.depart: node %d is down" node);
    if not (bget t.c.att node) then
      invalid_arg (Printf.sprintf "Mechanism.depart: node %d is already detached" node);
    let sb = t.c.slot_base.(node) and d = t.c.deg.(node) in
    let ih = ref (-1) and n_att = ref 0 in
    for i = 0 to d - 1 do
      if not (bget t.a.det (sb + i)) then begin
        incr n_att;
        ih := i
      end
    done;
    if !n_att <> 1 then
      invalid_arg
        (Printf.sprintf
           "Mechanism.depart: node %d has %d attached neighbours (need an active leaf)"
           node !n_att);
    let h = t.a.nbr.(sb + !ih) in
    if bget t.a.down (sb + !ih) || not (bget t.c.alive h) then
      invalid_arg
        (Printf.sprintf "Mechanism.depart: handoff neighbour %d is down" h);
    (match t.tel with
    | None -> ()
    | Some tel -> Telemetry.Metrics.incr tel.departs);
    if t.recording then
      Telemetry.Sink.record t.sink
        (Telemetry.Sink.Mark
           { time = t.clock (); shard = 0; node; name = "depart" });
    let carry = t.c.value.(node) in
    (* close the departing node's write history *)
    ghost_append_write t node
      { Ghost.wnode = node; windex = t.c.completed.(node); warg = Op.identity };
    t.c.completed.(node) <- t.c.completed.(node) + 1;
    let moved = t.c.gwrites.(node) and moved_hi = t.c.gwrites_len.(node) in
    (* the node's volatile state is surrendered with its membership *)
    wipe_volatile t node;
    bset t.c.att node false;
    t.c.value.(node) <- Op.identity;
    bset t.c.gval_dirty node true;
    (* neighbour side: void the slot, mark it detached *)
    let j = slot t h node in
    detach_slot t h j;
    (* transfer history, then the durable value as a real write at [h] *)
    if t.ghost then
      for k = 0 to moved_hi - 1 do
        let w = moved.(k) in
        if w.Ghost.windex > t.c.last_write.(h).(w.Ghost.wnode) then
          ghost_append_write t h w
      done;
    t2_write t h (Op.combine t.c.value.(h) carry);
    (* complete whatever was waiting on the departed subtree — exactly:
       the carry write already folded it in and a detached slot adds
       nothing to the cut *)
    cancel_exchanges t h j

  (* Join: a detached node attaches back.  The epoch bump plus the T7
     Hello resync is the same fencing a restart uses — attach points
     treat the joiner as a brand-new incarnation.  Membership knowledge
     ([det] bits, both sides) is recomputed from current [att] state:
     the joiner's own bits may be stale (neighbours churned while it was
     out), and attached neighbours unmask it synchronously (perfect
     membership detector, mirroring the crash model's [notify_down]). *)
  let join t ~node =
    if bget t.c.att node then
      invalid_arg (Printf.sprintf "Mechanism.join: node %d is already attached" node);
    if not (bget t.c.alive node) then
      invalid_arg (Printf.sprintf "Mechanism.join: node %d is down" node);
    let sb = t.c.slot_base.(node) and d = t.c.deg.(node) in
    let ok = ref false in
    for i = 0 to d - 1 do
      if bget t.c.att t.a.nbr.(sb + i) then ok := true
    done;
    if not !ok then
      invalid_arg
        (Printf.sprintf "Mechanism.join: node %d has no attached neighbour" node);
    (match t.tel with
    | None -> ()
    | Some tel -> Telemetry.Metrics.incr tel.joins);
    if t.recording then
      Telemetry.Sink.record t.sink
        (Telemetry.Sink.Mark
           { time = t.clock (); shard = 0; node; name = "join" });
    bset t.c.att node true;
    t.c.epoch.(node) <- t.c.epoch.(node) + 1;
    t.c.det_count.(node) <- 0;
    t.c.down_count.(node) <- 0;
    for i = 0 to d - 1 do
      let s = sb + i in
      let v = t.a.nbr.(s) in
      bset t.a.det s false;
      bset t.a.down s false;
      if not (bget t.c.att v) then begin
        bset t.a.det s true;
        t.c.det_count.(node) <- t.c.det_count.(node) + 1
      end
      else begin
        let vs = t.c.slot_base.(v) + slot t v node in
        if bget t.a.det vs then begin
          bset t.a.det vs false;
          t.c.det_count.(v) <- t.c.det_count.(v) - 1
        end;
        if bget t.c.alive v then begin
          bset t.a.resync s true;
          send_hello t node i
        end
        else begin
          bset t.a.down s true;
          t.c.down_count.(node) <- t.c.down_count.(node) + 1
        end
      end
    done;
    bset t.c.any_cut node (t.c.down_count.(node) > 0)

  (* ------------------------------------------------------------------ *)
  (* Construction.                                                      *)

  (* The view column's filler until [ops] exists. *)
  let uninit_view =
    {
      Policy.id = -1;
      ops =
        {
          Policy.taken = (fun _ _ -> false);
          other_grantee = (fun _ _ -> false);
          uaw_size = (fun _ _ -> 0);
        };
    }

  let create ?(ghost = false) ?on_send ?metrics ?sink ?clock
      ?(detached = []) tree ~policy =
    let n = Tree.n_nodes tree in
    (* [Tree.Dyn.create] owns the membership validation: range, no
       duplicates, active set nonempty and connected. *)
    (if detached <> [] then
       try ignore (Tree.Dyn.create ~detached tree)
       with Invalid_argument m -> invalid_arg ("Mechanism.create: " ^ m));
    let c =
      {
        value = Array.make n Op.identity;
        gval_cache = Array.make n Op.identity;
        gval_dirty = Bytes.make n '\001';
        alive = Bytes.make n '\001';
        att = Bytes.make n '\001';
        any_cut = Bytes.make n '\000';
        tkn_count = Array.make n 0;
        grntd_count = Array.make n 0;
        down_count = Array.make n 0;
        det_count = Array.make n 0;
        upcntr = Array.make n 0;
        completed = Array.make n 0;
        epoch = Array.make n 0;
        deg = Array.make n 0;
        self_pos = Array.make n 0;
        slot_base = Array.make n 0;
        req_base = Array.make n 0;
        msk_base = Array.make n 0;
        policy =
          Array.init n (fun u -> policy ~node_id:u ~nbrs:(Tree.neighbors tree u));
        view = Array.make n uninit_view;
        pending1 = Array.make n no_k;
        pending = Array.make n [];
        pending_spans = Array.make n [];
        glog = Array.make n [];
        gwrites = Array.make n [||];
        gwrites_len = Array.make n 0;
        last_write =
          (if ghost then Array.init n (fun _ -> Array.make n (-1))
           else Array.make n [||]);
      }
    in
    (* Per-node scalars and arena geometry.  Neighbour slots are the
       tree's channel numbering. *)
    let rdim = ref 0 and mdim = ref 0 in
    for u = 0 to n - 1 do
      let nbrs_arr = Tree.neighbors_arr tree u in
      let d = Array.length nbrs_arr in
      c.deg.(u) <- d;
      let sp = ref 0 in
      Array.iter (fun v -> if v < u then incr sp) nbrs_arr;
      c.self_pos.(u) <- !sp;
      c.slot_base.(u) <- Tree.channel_base tree u;
      c.req_base.(u) <- !rdim;
      c.msk_base.(u) <- !mdim;
      rdim := !rdim + d + 1;
      mdim := !mdim + (d * (d + 1))
    done;
    let s = Tree.n_channels tree in
    let a =
      {
        nbr = Array.make (max 1 s) 0;
        taken = Bytes.make (max 1 s) '\000';
        granted = Bytes.make (max 1 s) '\000';
        down = Bytes.make (max 1 s) '\000';
        det = Bytes.make (max 1 s) '\000';
        resync = Bytes.make (max 1 s) '\000';
        refresh = Bytes.make (max 1 s) '\000';
        aval = Array.make (max 1 s) Op.identity;
        probed = Array.make (max 1 s) 0;
        nbr_epoch = Array.make (max 1 s) (-1);
        shipped = Array.make (max 1 s) 0;
        log = Ulog.create s;
        subcut = Array.make (max 1 s) IntSet.empty;
        pndg = Bytes.make (max 1 !rdim) '\000';
        snt_count = Array.make (max 1 !rdim) 0;
        snt = Bytes.make (max 1 !mdim) '\000';
      }
    in
    let ops = policy_ops c a in
    for u = 0 to n - 1 do
      let nbrs_arr = Tree.neighbors_arr tree u in
      Array.blit nbrs_arr 0 a.nbr c.slot_base.(u) (Array.length nbrs_arr);
      c.view.(u) <- { Policy.id = u; ops }
    done;
    (* initial membership: detached nodes start outside the active tree,
       and every node's [det] bits reflect that from the first step *)
    if detached <> [] then begin
      List.iter (fun u -> bset c.att u false) detached;
      for u = 0 to n - 1 do
        let sb = c.slot_base.(u) in
        for i = 0 to c.deg.(u) - 1 do
          if not (bget c.att a.nbr.(sb + i)) then begin
            bset a.det (sb + i) true;
            c.det_count.(u) <- c.det_count.(u) + 1
          end
        done
      done
    end;
    let pool = Frame.create_pool ~name:"mech.frames" () in
    let net = Simul.Network.create ?on_send ?metrics ?sink ?clock tree in
    let tel =
      match metrics with
      | None -> None
      | Some m ->
        Some
          {
            lease_set = Telemetry.Metrics.counter m "mech.lease.set";
            lease_break = Telemetry.Metrics.counter m "mech.lease.break";
            lease_deny = Telemetry.Metrics.counter m "mech.lease.deny";
            update_fanout = Telemetry.Metrics.histogram m "mech.update.fanout";
            release_cascade =
              Telemetry.Metrics.histogram m "mech.release.cascade";
            ghost_log = Telemetry.Metrics.gauge m "mech.ghost.log";
            recovery_reprobes =
              Telemetry.Metrics.counter m "mech.recovery.reprobes";
            partial_combines =
              Telemetry.Metrics.counter m "mech.recovery.partial_combines";
            departs = Telemetry.Metrics.counter m "mech.membership.depart";
            joins = Telemetry.Metrics.counter m "mech.membership.join";
          }
    in
    {
      tree;
      net;
      pool;
      ledger = Array.make (max 1 (s * ledger_kinds)) 0;
      n;
      c;
      a;
      ghost;
      tel;
      sink = (match sink with Some s -> s | None -> Telemetry.Sink.null);
      recording =
        (match sink with Some s -> Telemetry.Sink.enabled s | None -> false);
      obs =
        (tel <> None
        || match sink with Some s -> Telemetry.Sink.enabled s | None -> false);
      clock = Simul.Network.clock net;
      spans = Telemetry.Span.allocator ();
      out_send = Simul.Network.send_chan net;
      out_pool = (fun _ -> pool);
    }

  (* The router addresses nodes: adapt it to channel ids once, here. *)
  let set_outbox t ~send ~pool_for =
    let tree = t.tree in
    t.out_send <-
      (fun c f ->
        send ~src:(Tree.channel_src tree c) ~dst:(Tree.channel_dst tree c) f);
    t.out_pool <- pool_for

  (* ------------------------------------------------------------------ *)
  (* Public interface.                                                  *)

  let tree t = t.tree
  let network t = t.net
  let frame_pool t = t.pool
  let policy_name t = (t.c.policy.(0)).Policy.name

  let require_alive t node op =
    if not (bget t.c.alive node) then
      invalid_arg (Printf.sprintf "Mechanism.%s: node %d is down" op node);
    if not (bget t.c.att node) then
      invalid_arg (Printf.sprintf "Mechanism.%s: node %d is detached" op node)

  let write t ~node arg =
    require_alive t node "write";
    t2_write t node arg

  (* Queue a combine's continuation behind the node's pending ones. *)
  let queue_combine t u k =
    if t.recording then
      t.c.pending_spans.(u) <-
        Telemetry.Span.start t.sink t.spans ~shard:0 ~clock:t.clock ~node:u
          ~name:"combine"
        :: t.c.pending_spans.(u);
    t.c.pending.(u) <- k :: t.c.pending.(u)

  let combine_tagged t ~node k =
    require_alive t node "combine";
    queue_combine t node k;
    t1_combine t node

  (* A lone combine's continuation is stored as given, in its column:
     no wrapper, no cons cell. *)
  let combine t ~node k =
    require_alive t node "combine";
    if idle t node && not t.recording then t.c.pending1.(node) <- k
    else queue_combine t node (fun v ~cut:_ -> k v);
    t1_combine t node

  (* Inbox boundary, the one decoder: read the payload straight off the
     frame (layouts above the senders) and dispatch, with Update and
     Response sharing the report decode.  The handler consumes the
     caller's frame reference (a crashed destination silently loses the
     message — the reliable transport already filters these, but
     plain-network drivers may still deliver in-flight messages of a
     dead incarnation). *)
  let handler t ~src ~dst f =
    (* The sender's slot, found once: every transition takes it. *)
    let i = slot t dst src in
    if i < 0 then begin
      Frame.release f;
      invalid_arg
        (Printf.sprintf "Mechanism.handler: %d is not a neighbour of %d" src dst)
    end;
    (* Frames addressed to (or from the previous attachment of) a node
       outside the active tree are dropped like a dead incarnation's:
       the [det_count] short-circuit keeps the churn-free hot path at
       one extra byte load. *)
    (if
       bget t.c.alive dst
       && bget t.c.att dst
       && (t.c.det_count.(dst) = 0
          || not (bget t.a.det (t.c.slot_base.(dst) + i)))
     then begin
       let b = Frame.buf f in
       let k = Frame.kind f in
       if k = k_update || k = k_response then begin
         let pos = report_at k in
         let xl = Frame.get_u16 b pos in
         let x = Op.decode b (pos + 2) xl in
         let pos = pos + 2 + xl in
         let nc = Frame.get_u16 b pos in
         let cut = if nc = 0 then [] else decode_ids b (pos + 2) nc in
         let pos = pos + 2 + (8 * nc) in
         let nw = Frame.get_u32 b pos in
         let wlog = if nw = 0 then [] else decode_wlog b (pos + 4) nw in
         if k = k_update then
           t5_update t dst i x (Frame.get_int b hs) cut wlog
         else t4_response t dst i x (Frame.get_u8 b hs <> 0) cut wlog
       end
       else if k = k_probe then t3_probe t dst i
       else if k = k_release then begin
         let count = Frame.get_u32 b hs in
         t6_release t dst i ~has_ids:(count > 0)
           ~min_id:(if count > 0 then Frame.get_int b (hs + 4) else 0)
       end
       else if k = k_hello then t7_hello t dst i (Frame.get_int b hs)
       else invalid_arg (Printf.sprintf "Mechanism.handler: kind %d" k)
     end);
    Frame.release f

  let run_to_quiescence ?max_deliveries t =
    Simul.Engine.run_to_quiescence ?max_deliveries t.net ~handler:(handler t)

  let write_sync t ~node arg =
    write t ~node arg;
    ignore (run_to_quiescence t)

  let combine_sync t ~node =
    let result = ref None in
    combine t ~node (fun v -> result := Some v);
    ignore (run_to_quiescence t);
    match !result with
    | Some v -> v
    | None -> failwith "Mechanism.combine_sync: combine did not complete"

  let gather_sync t ~node =
    if not t.ghost then
      invalid_arg "Mechanism.gather_sync: requires a system created with ~ghost:true";
    let value = combine_sync t ~node in
    (* The combine just logged its gather entry; read its recentwrites. *)
    match t.c.glog.(node) with
    | Ghost.Combine { crecent; _ } :: _ -> (value, crecent)
    | _ -> failwith "Mechanism.gather_sync: combine left no gather entry"

  let run_sequential t requests =
    List.map
      (fun (q : Op.t Request.t) ->
        match q.op with
        | Request.Write v ->
          write_sync t ~node:q.node v;
          { Request.request = q; returned = None }
        | Request.Combine ->
          let v = combine_sync t ~node:q.node in
          { Request.request = q; returned = Some v })
      requests

  let local_value t u = t.c.value.(u)
  let gval t u = gval_of t u

  let taken t u v =
    let i = slot t u v in
    i >= 0 && bget t.a.taken (t.c.slot_base.(u) + i)

  let granted t u v =
    let i = slot t u v in
    i >= 0 && bget t.a.granted (t.c.slot_base.(u) + i)

  let uaw t u v =
    let i = slot t u v in
    if i < 0 then IntSet.empty
    else begin
      let acc = ref IntSet.empty in
      Ulog.iter t.a.log (t.c.slot_base.(u) + i) (fun id _ ->
          acc := IntSet.add id !acc);
      !acc
    end

  let pndg t u =
    let sb = t.c.slot_base.(u) and rb = t.c.req_base.(u) and d = t.c.deg.(u) in
    let s = ref IntSet.empty in
    for i = 0 to d - 1 do
      if bget t.a.pndg (rb + i) then s := IntSet.add t.a.nbr.(sb + i) !s
    done;
    if bget t.a.pndg (rb + d) then s := IntSet.add u !s;
    !s

  let snt t u v =
    let sb = t.c.slot_base.(u) and d = t.c.deg.(u) in
    let r = if v = u then d else slot t u v in
    if r < 0 then IntSet.empty
    else begin
      let mb = t.c.msk_base.(u) + (r * d) in
      let s = ref IntSet.empty in
      for i = 0 to d - 1 do
        if bget t.a.snt (mb + i) then s := IntSet.add t.a.nbr.(sb + i) !s
      done;
      !s
    end

  let sntupdates_length t u =
    let sb = t.c.slot_base.(u) in
    let acc = ref 0 in
    for i = 0 to t.c.deg.(u) - 1 do
      let mark = Ulog.mark t.a.log (sb + i) in
      Ulog.iter t.a.log (sb + i) (fun _ snt -> if snt > mark then incr acc)
    done;
    !acc

  let lease_graph_edges t =
    List.filter (fun (u, v) -> granted t u v) (Tree.ordered_pairs t.tree)

  (* Summed from the ledger on each call, O(channels): a running total
     would be one counter written by every shard's domain. *)
  let message_total t = Array.fold_left ( + ) 0 t.ledger

  let messages_of_kind t kind =
    let k = Simul.Kind.index kind in
    let acc = ref 0 in
    if k < ledger_kinds then
      for s = 0 to (Array.length t.ledger / ledger_kinds) - 1 do
        acc := !acc + t.ledger.((s * ledger_kinds) + k)
      done;
    !acc

  let sent t ~src ~dst kind =
    let i = slot t src dst in
    if i < 0 then
      invalid_arg
        (Printf.sprintf "Mechanism.sent: (%d,%d) is not an edge of the tree"
           src dst);
    let k = Simul.Kind.index kind in
    if k >= ledger_kinds then 0
    else t.ledger.(((t.c.slot_base.(src) + i) * ledger_kinds) + k)

  let cost_between t u v =
    sent t ~src:v ~dst:u Simul.Kind.Probe
    + sent t ~src:u ~dst:v Simul.Kind.Response
    + sent t ~src:u ~dst:v Simul.Kind.Update
    + sent t ~src:v ~dst:u Simul.Kind.Release

  let reset_message_counters t =
    Array.fill t.ledger 0 (Array.length t.ledger) 0;
    Simul.Network.reset_counters t.net

  let log t u = List.rev t.c.glog.(u)
  let completed_requests t u = t.c.completed.(u)
  let alive t u = bget t.c.alive u
  let attached t u = bget t.c.att u
  let epoch t u = t.c.epoch.(u)

  let known_down t u =
    let sb = t.c.slot_base.(u) in
    let s = ref IntSet.empty in
    for i = 0 to t.c.deg.(u) - 1 do
      if bget t.a.down (sb + i) then s := IntSet.add t.a.nbr.(sb + i) !s
    done;
    !s

  let known_detached t u =
    let sb = t.c.slot_base.(u) in
    let s = ref IntSet.empty in
    for i = 0 to t.c.deg.(u) - 1 do
      if bget t.a.det (sb + i) then s := IntSet.add t.a.nbr.(sb + i) !s
    done;
    !s

  (* ------------------------------------------------------------------ *)
  (* Ghost-state access for the anti-entropy layer (lib/repair).  The   *)
  (* per-origin prefix invariant (every log holds a dense prefix of     *)
  (* each origin's write sequence) is what makes frontier comparison    *)
  (* and suffix shipping a sound reconciliation protocol.               *)

  let require_ghost t fn =
    if not t.ghost then
      invalid_arg
        (Printf.sprintf "Mechanism.%s: requires a system created with ~ghost:true" fn)

  (* Per-origin high-water marks of [node]'s write log (-1 = none). *)
  let ghost_frontier t ~node =
    require_ghost t "ghost_frontier";
    Array.copy t.c.last_write.(node)

  (* The writes of [origin] in [node]'s log with index > [above], in
     index order — by the prefix invariant, exactly what a peer whose
     frontier stops at [above] is missing. *)
  let ghost_suffix t ~node ~origin ~above =
    require_ghost t "ghost_suffix";
    let g = t.c.gwrites.(node) and len = t.c.gwrites_len.(node) in
    let acc = ref [] in
    for k = len - 1 downto 0 do
      let w = g.(k) in
      if w.Ghost.wnode = origin && w.Ghost.windex > above then acc := w :: !acc
    done;
    !acc

  (* Out-of-band admission of repaired writes (anti-entropy delivery):
     same merge as a piggybacked wlog, so the prefix invariant is
     preserved as long as the shipped ranges are themselves per-origin
     prefixes — which {!ghost_suffix} guarantees. *)
  let ghost_admit t ~node writes =
    require_ghost t "ghost_admit";
    ghost_merge t node writes

  (* ------------------------------------------------------------------ *)
  (* Internal-consistency audit.                                        *)

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    Frame.check_pool t.pool;
    let c = t.c and a = t.a in
    for u = 0 to t.n - 1 do
      let sb = c.slot_base.(u) and d = c.deg.(u) in
      let rb = c.req_base.(u) and mb = c.msk_base.(u) in
      (* dense counters vs recomputed cardinalities *)
      let bcount base len by =
        let n = ref 0 in
        for i = base to base + len - 1 do
          if bget by i then incr n
        done;
        !n
      in
      if bcount sb d a.taken <> c.tkn_count.(u) then
        fail "node %d: tkn_count %d <> %d" u c.tkn_count.(u)
          (bcount sb d a.taken);
      if bcount sb d a.granted <> c.grntd_count.(u) then
        fail "node %d: grntd_count %d <> %d" u c.grntd_count.(u)
          (bcount sb d a.granted);
      (* crash/recovery bookkeeping *)
      if bcount sb d a.down <> c.down_count.(u) then
        fail "node %d: down_count %d <> %d" u c.down_count.(u)
          (bcount sb d a.down);
      for i = 0 to d - 1 do
        if bget a.down (sb + i) then begin
          if bget a.taken (sb + i) then
            fail "node %d: taken lease on down slot %d" u i;
          if bget a.granted (sb + i) then
            fail "node %d: granted lease to down slot %d" u i;
          if not (IntSet.is_empty a.subcut.(sb + i)) then
            fail "node %d: nonempty subcut on down slot %d" u i
        end
      done;
      (* membership bookkeeping *)
      if bcount sb d a.det <> c.det_count.(u) then
        fail "node %d: det_count %d <> %d" u c.det_count.(u) (bcount sb d a.det);
      for i = 0 to d - 1 do
        let s = sb + i in
        if bget a.det s then begin
          if bget a.down s then
            fail "node %d: slot %d both down and detached" u i;
          if bget a.taken s then
            fail "node %d: taken lease on detached slot %d" u i;
          if bget a.granted s then
            fail "node %d: granted lease to detached slot %d" u i;
          if not (IntSet.is_empty a.subcut.(s)) then
            fail "node %d: nonempty subcut on detached slot %d" u i;
          if not (Op.equal a.aval.(s) Op.identity) then
            fail "node %d: non-identity aval on detached slot %d" u i
        end;
        (* det bits of attached nodes track current membership exactly;
           a detached node's bits may be stale (recomputed at join) *)
        if bget c.att u && bget a.det s <> not (bget c.att a.nbr.(s)) then
          fail "node %d: det bit for neighbour %d disagrees with membership" u
            a.nbr.(s)
      done;
      if not (bget c.att u) then begin
        if c.tkn_count.(u) <> 0 || c.grntd_count.(u) <> 0 then
          fail "node %d: detached but holds lease state" u;
        if not (idle t u) then
          fail "node %d: detached with pending combines" u;
        if not (Op.equal c.value.(u) Op.identity) then
          fail "node %d: detached with non-identity value" u
      end;
      let any' =
        c.down_count.(u) > 0
        ||
        let some = ref false in
        for i = 0 to d - 1 do
          if not (IntSet.is_empty a.subcut.(sb + i)) then some := true
        done;
        !some
      in
      if bget c.any_cut u <> any' then
        fail "node %d: any_cut %b inconsistent" u (bget c.any_cut u);
      if not (bget c.alive u) then begin
        if c.tkn_count.(u) <> 0 || c.grntd_count.(u) <> 0 then
          fail "node %d: crashed but holds lease state" u;
        if not (idle t u) then
          fail "node %d: crashed with pending combines" u
      end;
      (* gval cache *)
      if not (bget c.gval_dirty u) then begin
        let x = ref c.value.(u) in
        for i = 0 to d - 1 do
          x := Op.combine !x a.aval.(sb + i)
        done;
        if not (Op.equal !x c.gval_cache.(u)) then
          fail "node %d: stale gval cache" u
      end;
      (* snt masks vs their counters, probed counters, pndg linkage *)
      let probed' = Array.make (max 1 d) 0 in
      for r = 0 to d do
        let row = mb + (r * d) and cnt = ref 0 and i = ref 0 in
        while !i < d do
          (* masks are mostly clear: skip zero words *)
          if !i + 8 <= d && Bytes.get_int64_ne a.snt (row + !i) = 0L then
            i := !i + 8
          else begin
            if bget a.snt (row + !i) then begin
              incr cnt;
              probed'.(!i) <- probed'.(!i) + 1
            end;
            incr i
          end
        done;
        let cnt = !cnt in
        if cnt <> a.snt_count.(rb + r) then
          fail "node %d: snt_count[%d] %d <> %d" u r a.snt_count.(rb + r) cnt;
        if bget a.pndg (rb + r) <> (cnt > 0) then
          fail "node %d: pndg[%d]=%b but |snt|=%d" u r
            (bget a.pndg (rb + r))
            cnt
      done;
      for i = 0 to d - 1 do
        if probed'.(i) <> a.probed.(sb + i) then
          fail "node %d: probed[%d] %d <> %d" u i a.probed.(sb + i) probed'.(i)
      done;
      (* update logs: each one's own audit (Ulog.audit), and its last
         sntid is one this node issued *)
      for i = 0 to d - 1 do
        let s = sb + i in
        (try Ulog.audit a.log s with Failure m -> fail "node %d: slot %d: %s" u i m);
        if Ulog.last_snt a.log s > c.upcntr.(u) then
          fail "node %d: update log last sntid %d above upcntr %d" u
            (Ulog.last_snt a.log s) c.upcntr.(u)
      done;
      (* ghost: gwrites mirrors glog's write subsequence; per-origin
         indices increase chronologically; last_write is their max *)
      let writes = Ghost.wlog (List.rev c.glog.(u)) in
      if List.length writes <> c.gwrites_len.(u) then
        fail "node %d: gwrites_len %d <> %d writes in glog" u c.gwrites_len.(u)
          (List.length writes);
      List.iteri
        (fun j (w : Op.t Ghost.write) ->
          let w' = c.gwrites.(u).(j) in
          if w'.Ghost.wnode <> w.wnode || w'.windex <> w.windex then
            fail "node %d: gwrites[%d] diverges from glog" u j)
        writes;
      let hi = Array.make (Array.length c.last_write.(u)) (-1) in
      List.iter
        (fun (w : Op.t Ghost.write) ->
          if w.windex <= hi.(w.wnode) then
            fail "node %d: write (%d,%d) breaks per-origin prefix order" u
              w.wnode w.windex;
          hi.(w.wnode) <- w.windex)
        writes;
      Array.iteri
        (fun v h ->
          if h <> c.last_write.(u).(v) then
            fail "node %d: last_write[%d] %d <> %d" u v c.last_write.(u).(v) h)
        hi;
      for i = 0 to d - 1 do
        if a.shipped.(sb + i) < 0 || a.shipped.(sb + i) > c.gwrites_len.(u)
        then
          fail "node %d: shipped[%d]=%d out of range" u i a.shipped.(sb + i)
      done
    done
end
