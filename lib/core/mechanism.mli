(** The lease-based aggregation mechanism (paper Figures 1 and 6).

    [Make (Op)] instantiates the protocol template for one aggregation
    operator.  The resulting [system] runs any lease policy (see
    {!Policy}) over any tree, on top of the FIFO simulator, and exposes:

    - request entry points: {!Make.write} and {!Make.combine} perform
      the paper's local transitions T2 and T1 and enqueue messages;
    - the message {!Make.handler} implementing transitions T3-T7
      (receipt of [probe], [response], [update], [release], [hello]);
    - sequential conveniences ({!Make.write_sync}, {!Make.combine_sync})
      that run the network to quiescence, giving the paper's sequential
      executions;
    - read-only inspection of the per-node state named by the paper
      ([taken], [granted], [uaw], [pndg], [snt]), used by the tests that
      check the paper's invariants (Lemmas 3.1, 3.2, 3.4, I(u), I4(u));
    - optional ghost logs (Figure 6) for the causal-consistency
      analysis of concurrent executions.

    The transcription is deliberately line-by-line: each transition
    carries a comment naming the paper's label (T1..T6) and procedures
    keep the paper's names ([sendprobes], [forwardupdates],
    [sendresponse], [onrelease], [forwardrelease], [gval], [subval]).

    Internally the per-node state named by the paper is stored densely
    as structure-of-arrays columns indexed by node id (every column is
    one flat array of length n, built once at {!Make.create}), with
    per-neighbour-slot state packed into shared arenas indexed by per-node base offsets:
    [taken]/[granted] are byte arrays with incrementally maintained
    cardinalities, the neighbour subtree caches are a value array
    behind a cached [gval] (so [subval] is O(1) for operators with a
    group inverse), and [uaw] and [sntupdates] are one delta-coded
    update log per channel ({!Ulog}): a record per update received from
    the neighbour since the last reset, holding its id and, when it was
    forwarded, its sntid, in about one byte, in a chain of blocks that
    grows without copying.  A reset is a few stores, and [onrelease]
    finds the paper's beta by a forward scan from the head whose passed
    records all leave the log.  Ghost write logs are delta-encoded per
    channel: each message carries only the suffix of the write log not
    previously shipped on that channel.

    A neighbour is addressed by its {e slot} (its position in the
    node's ascending neighbour list, see {!Policy}) end to end: the
    handler finds the sender's slot once per message, transitions,
    policy hooks and view accessors take slots, and a send goes onto
    channel [Tree.channel_base tree u + slot] with no search.  The
    oldest pending combine of a node waits in a per-node column as the
    caller's continuation itself; completion fires oldest first without
    building a list.

    The data plane is flat binary frames ({!Simul.Frame}) drawn from a
    per-system recycling pool: the outbox encodes each message straight
    into a pooled frame, the network queues carry the frames
    themselves, and {!Make.handler} decodes the payload off the frame
    and releases it.  The senders are the one encoder and the handler
    the one decoder; the payload layouts (Response and Update share one
    report layout) are described once, above the senders in
    [mechanism.ml].  In the fault-free, ghost-free steady state the
    whole send -> queue -> pop -> decode -> dispatch path performs
    {e zero} minor allocation (asserted by the frames test suite and
    gated in [bench-smoke]), and so does a sequential RWW request,
    probe waves and combine completion included ([gc-gate\[rww\]]).

    None of this changes the protocol: message sequences are identical
    to the plain transcription (pinned by golden tests), and
    {!Make.check_invariants} audits the representation — and the frame
    pool — against the naive recomputation. *)

module IntSet : Set.S with type elt = int

module Make (Op : Agg.Operator.S) : sig
  type t

  val create :
    ?ghost:bool ->
    ?on_send:(src:int -> dst:int -> unit) ->
    ?metrics:Telemetry.Metrics.t ->
    ?sink:Telemetry.Sink.t ->
    ?clock:(unit -> float) ->
    ?detached:int list ->
    Tree.t ->
    policy:Policy.factory ->
    t
  (** [create tree ~policy] builds the initial quiescent system: all
      local values are the operator identity, no leases in either
      direction, empty logs.  [ghost] (default [false]) enables the
      Figure 6 ghost actions (write logs piggybacked on messages).
      [on_send] is forwarded to the system's own network: pass
      [Simul.Devent.notify dev] to run it on virtual time with
      [Simul.Devent.drain dev (network t) ~handler:(handler t)].  It
      sees nothing after {!set_outbox}, which bypasses that network.

      Telemetry (all optional, zero-cost when absent):
      - [metrics] registers mechanism-level instruments alongside the
        network's: counters [mech.lease.set] / [mech.lease.break] /
        [mech.lease.deny], histograms [mech.update.fanout] (updates
        pushed per forwardupdates call) and [mech.release.cascade]
        (releases forwarded while handling one received release), gauge
        [mech.ghost.log] (ghost write-log length; its high-water mark
        bounds piggyback memory), and recovery counters
        [mech.recovery.reprobes] (first probe to a recovered neighbour)
        and [mech.recovery.partial_combines] (combines completed with a
        nonempty cut).
      - [sink] receives lease-lifecycle events, a [Mark] per write, and
        a [combine] span per T1 request (begun at initiation, finished
        at completion), all tagged shard 0.  A sink is not synchronised:
        under {!set_outbox} with several domains, record protocol
        events only where handler executions are serialised.
      - [clock] stamps events; both the mechanism and the network
        default to the network's op-tick clock, so pass
        [Simul.Devent.clock] to put everything on virtual time.  After
        {!set_outbox} that network carries nothing and its clock no
        longer advances: every event the mechanism records would carry
        the hand-off's tick (0.0 on a fresh system), so pass [~clock]
        to stamp them on a clock that moves.

      [detached] (default [[]]) lists nodes that start outside the
      active aggregation tree (see {!depart}/{!join}); the remaining
      active set must be nonempty and connected (validated through
      {!Tree.Dyn.create}).
      @raise Invalid_argument on an invalid initial membership. *)

  val tree : t -> Tree.t

  val network : t -> Simul.Network.t
  (** The system's own network, where every send goes until
      {!set_outbox}.  Code that pops from it directly owns each popped
      frame and must either hand it to {!handler} (which releases it)
      or release it itself. *)

  val frame_pool : t -> Simul.Frame.pool
  (** The pool every outgoing frame is drawn from.  At quiescence its
      live count is 0 — anything else is a leaked in-flight frame.
      After {!set_outbox} the default pool is bypassed (frames come
      from the router's per-shard pools) and stays empty. *)

  val set_outbox :
    t ->
    send:(src:int -> dst:int -> Simul.Frame.t -> unit) ->
    pool_for:(int -> Simul.Frame.pool) ->
    unit
  (** Reroute message egress: every outgoing frame is allocated from
      [pool_for sender] and handed to [send] instead of the internal
      network (which takes it by channel id, {!Simul.Network.send_chan});
      the mechanism's channel ids are adapted to [send]'s [~src ~dst]
      once, here.  This is how every other transport attaches: the
      sharded router ({!Simul.Sharded.route}, each node drawing from
      its owning shard's pool, cross-shard sends through mailboxes) and
      the reliable transport ({!Simul.Reliable.send}, as
      [Fault.Runner] wires it).  The per-edge ledger is counted before
      the frame leaves, so {!sent}, {!cost_between}, {!message_total}
      and {!messages_of_kind} read this system's traffic on every
      transport; {!network} stays idle.  Install before any domain is
      spawned and leave it alone afterwards; transitions for a node
      must then only run on the domain owning that node. *)

  val policy_name : t -> string

  (** {1 Requests (local transitions)} *)

  val write : t -> node:int -> Op.t -> unit
  (** Transition T2 at [node]: set the local value, notify lease
      holders.  Messages are enqueued, not delivered. *)

  val combine : t -> node:int -> (Op.t -> unit) -> unit
  (** Transition T1 at [node].  The continuation receives the global
      aggregate; it fires immediately if all neighbouring subtree
      aggregates are covered by taken leases, otherwise after the
      probe/response sub-protocol completes (during a later delivery).
      During a partition the aggregate may be partial — use
      {!combine_tagged} to observe the cut. *)

  val combine_tagged : t -> node:int -> (Op.t -> cut:int list -> unit) -> unit
  (** Like {!combine}, but the continuation also receives the {e cut}:
      the roots of the subtrees the aggregate could not reach (crashed
      neighbours and cuts reported from deeper in the tree).  [cut = []]
      means the result is the exact global aggregate.  Partial results
      (nonempty cut) are degraded reads outside the consistency
      contract: they are not ghost-logged and do not advance
      {!completed_requests}. *)

  (** {1 Message delivery} *)

  val handler : t -> src:int -> dst:int -> Simul.Frame.t -> unit
  (** Transitions T3-T7, dispatched on the frame's kind byte.  The one
      decoder: payload fields are read in place, with Response and
      Update sharing the report decode (layouts above the senders in
      [mechanism.ml]).  Consumes the caller's frame reference.  Frames
      addressed to a crashed node are silently dropped (and still
      released).
      @raise Invalid_argument if [src] is not a neighbour of [dst]. *)

  val run_to_quiescence : ?max_deliveries:int -> t -> int
  (** Deliver queued messages until quiescent; returns deliveries.
      @raise Simul.Engine.Divergence past [max_deliveries] (default
      [10^8], as {!Simul.Engine.run_to_quiescence}). *)

  (** {1 Crash and recovery}

      The failure model: a {!crash}ed node loses all volatile protocol
      state (leases in both directions, cached aggregates, pending
      combines, probe bookkeeping) but keeps its durable input [value],
      and its analysis-only ghost log.  Neighbours learn of the crash
      synchronously (perfect failure detector): they void all state
      involving the dead incarnation, cancel probe exchanges with it
      (completing affected combines {e partially}, tagged with the cut,
      rather than hanging), and exclude it from lease coverage.
      {!restart} bumps the node's lease epoch and announces the new
      incarnation with [Hello] messages; on receipt (T7) neighbours
      break any leftover leases, re-probe the fresh subtree on behalf of
      still-pending requests, and reply with their own epoch.  In-flight
      messages of a dead incarnation must be discarded by the transport
      ({!Simul.Reliable}'s session teardown); with a plain network the
      handler's alive-guard drops them on delivery. *)

  val crash : t -> node:int -> unit
  (** @raise Invalid_argument if already down. *)

  val restart : t -> node:int -> unit
  (** @raise Invalid_argument if not down. *)

  val alive : t -> int -> bool

  val epoch : t -> int -> int
  (** Lease epoch (incarnation number): restarts so far. *)

  val known_down : t -> int -> IntSet.t
  (** Neighbours a node currently believes to be crashed. *)

  (** {1 Dynamic membership (churn)}

      The capacity tree is fixed; membership tracks which nodes are
      currently part of the active aggregation tree.  The legal moves
      mirror {!Tree.Dyn}: only an active leaf of the active subtree may
      {!depart} (its unique attached neighbour is the {e handoff
      point}), and a detached node {!join}s back at any attached
      neighbour.  A departure hands the leaf's durable value and ghost
      write log to the handoff neighbour — the departing node closes
      its history with an identity write and the neighbour absorbs the
      carried value with a real write, so the aggregate over the active
      tree is conserved and the causal checker stays green across the
      reconfiguration.  A join bumps the node's epoch and runs the T7
      [Hello] resync, exactly like a restart: the attachment is fenced
      against any stale frames of the previous membership.  Detached
      neighbours are excluded from lease coverage like crashed ones but
      contribute {e no} cut entries: combines over the active tree stay
      exact.  Requests ({!write}/{!combine}) on a detached node raise. *)

  val depart : t -> node:int -> unit
  (** Detach an active leaf, handing its state to its unique attached
      neighbour.  @raise Invalid_argument if the node is down, already
      detached, not an active leaf, or its handoff neighbour is down. *)

  val join : t -> node:int -> unit
  (** Re-attach a detached node (epoch bump + Hello resync).
      @raise Invalid_argument if the node is attached, down, or has no
      attached neighbour. *)

  val attached : t -> int -> bool

  val known_detached : t -> int -> IntSet.t
  (** Neighbours a node currently believes to be detached.  Exact for
      attached nodes; possibly stale for a detached node (recomputed
      when it joins). *)

  (** {1 Anti-entropy hooks (lib/repair)}

      Ghost-log reconciliation primitives.  Every ghost log holds, per
      origin, a dense prefix of that origin's write sequence, so state
      comparison reduces to comparing per-origin high-water marks and
      repair reduces to shipping suffixes.  All three require
      [~ghost:true].  @raise Invalid_argument otherwise. *)

  val ghost_frontier : t -> node:int -> int array
  (** Per-origin high-water marks of the node's write log ([-1] =
      none); fresh copy, index = tree node. *)

  val ghost_suffix : t -> node:int -> origin:int -> above:int -> Op.t Ghost.write list
  (** The writes of [origin] in [node]'s log with index > [above], in
      index order — what a peer whose frontier stops at [above] is
      missing. *)

  val ghost_admit : t -> node:int -> Op.t Ghost.write list -> unit
  (** Merge repaired writes into [node]'s log (out-of-band delivery;
      same merge as a piggybacked wlog, deduplicated by index). *)

  (** {1 Sequential execution} *)

  val write_sync : t -> node:int -> Op.t -> unit
  (** T2 then run to quiescence: one sequentially executed write. *)

  val combine_sync : t -> node:int -> Op.t
  (** T1 then run to quiescence: one sequentially executed combine.
      @raise Failure if the combine did not complete (impossible in a
      sequential execution; indicates a protocol bug). *)

  val gather_sync : t -> node:int -> Op.t * (int * int) list
  (** The gather request of Section 5: a combine that additionally
      returns, for every tree node, the per-node index of the most
      recent write the aggregate reflects ([-1] if none) — the
      [recentwrites] retval.  Requires the system to have been created
      with [~ghost:true].
      @raise Invalid_argument otherwise. *)

  val run_sequential : t -> Op.t Request.t list -> Op.t Request.result list
  (** Execute a whole request sequence sequentially. *)

  (** {1 Inspection} *)

  val local_value : t -> int -> Op.t
  val gval : t -> int -> Op.t
  (** The paper's [gval()]: aggregate of local value and neighbour
      subtree caches. *)

  val taken : t -> int -> int -> bool
  (** [taken t u v] = the paper's [u.taken\[v\]]. *)

  val granted : t -> int -> int -> bool
  (** [granted t u v] = the paper's [u.granted\[v\]]. *)

  val uaw : t -> int -> int -> IntSet.t
  (** [uaw t u v] = the paper's [u.uaw\[v\]]: the ids of the records in
      the update log of [u]'s channel from [v], from its head on. *)

  val pndg : t -> int -> IntSet.t
  val snt : t -> int -> int -> IntSet.t

  val sntupdates_length : t -> int -> int
  (** The number of live [sntupdates] tuples at [u]: the forwarded
      records above the pruning watermark, summed over [u]'s channel
      logs.  The watermark is the sntid of the last beta [onrelease]
      consumed, or the channel's last sntid after a reset; a tuple at
      or below it can no longer change [uaw]. *)

  val lease_graph_edges : t -> (int * int) list
  (** Directed edges (u,v) with [granted t u v] — the paper's lease
      graph G(Q). *)

  val message_total : t -> int
  (** Frames this system sent since creation (or the last
      {!reset_message_counters}): the paper's cost [C_A(sigma)], summed
      from {!sent}'s ledger on each call, O(channels), so the same on
      every engine and transport.  A per-request reader on one domain
      with no transport attached reads [Simul.Network.total (network t)]
      instead, in O(1). *)

  val messages_of_kind : t -> Simul.Kind.t -> int
  (** {!message_total} restricted to one kind, from the same ledger;
      [Ack] reads 0. *)

  val sent : t -> src:int -> dst:int -> Simul.Kind.t -> int
  (** Frames of one kind this system sent on the directed edge
      [(src,dst)] since creation (or the last
      {!reset_message_counters}), read from a per-slot ledger that
      {!handler} and the request entry points fill as each frame
      leaves.  It counts on both engines, and it counts what the
      mechanism sent: a transport's retransmissions and a faulty
      wire's duplicates and drops are not in it, and [Ack] reads 0.
      Five ints per directed channel, once per system.
      @raise Invalid_argument if [src] and [dst] are not neighbours. *)

  val cost_between : t -> int -> int -> int
  (** [cost_between t u v] is the paper's [C_A(sigma, u, v)]: probes
      v->u + responses u->v + updates u->v + releases v->u, from
      {!sent}'s ledger, so per slot and on both engines. *)

  val reset_message_counters : t -> unit
  (** Zero the ledger and the totals of {!network}. *)

  val check_invariants : t -> unit
  (** Audit the internal representation: the dense per-slot lease arrays
      against their incrementally maintained cardinalities ([tkn_count],
      [grntd_count], snt popcounts, the sntprobes membership counters),
      the cached [gval] against a fresh fold, the per-channel update logs
      ({!Ulog.audit}: head and tail inside the slot's own chain of
      blocks, records decode to the cached count, ids and sntids
      strictly increase, the tail matches the last id and sntid, and
      watermark <= last sntid; here also last sntid <= [upcntr]) and
      the ghost state (write array mirrors the log,
      per-origin prefix order, [last_write] high-water marks).  Safe to
      call between any two request/delivery steps.
      @raise Failure on the first violated invariant. *)

  (** {1 Ghost logs (Section 5)} *)

  val log : t -> int -> Op.t Ghost.entry list
  (** [log t u]: node [u]'s ghost log, chronological.  Empty unless the
      system was created with [~ghost:true]. *)

  val completed_requests : t -> int -> int
  (** Number of completed requests at a node (drives request indices). *)
end
