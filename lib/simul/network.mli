(** Reliable FIFO transport of {!Frame.t}s over a tree topology, with
    message accounting.

    Each directed edge [(u,v)] of the tree carries an unbounded FIFO
    channel of frames.  [send] enqueues; delivery happens when a
    scheduler ({!Engine}, or {!Devent} on virtual time) pops a frame and
    hands it to the receiving node's handler.  The network counts every
    transmission by the frame's kind byte ({!Frame.kind}, a
    {!Kind.index}); the total message count is the cost measure of the
    aggregation problem.  The per-edge split of that cost (the paper's
    C_A(sigma,u,v)) belongs to the protocol, so the mechanism keeps it,
    once per system on both engines ([Oat.Mechanism.Make.sent]); a
    network has no per-edge counters.

    A queued frame holds one reference ({!Frame.retain}/{!Frame.release})
    per queue occurrence; whoever pops a frame owns that reference.

    Channels are the tree's directed-channel ids ({!Tree.channel}).
    Every queued frame occupies one cell of a shared pool, linked by
    index to the next frame of its channel, so a channel costs a
    four-int header plus one cell per frame in flight.

    Delivery is O(1) per message independently of tree size: the network
    maintains an active-channel registry (the set of nonempty directed
    channels) incrementally under [send], [pop] and the deliver pair,
    so the schedulers never rescan the topology.  All scheduling
    decisions are deterministic functions of the operation history (and,
    for {!deliver_random}, of the supplied PRNG), so same-seed runs are
    reproducible byte for byte. *)

type t

type fault_decision = {
  drop : bool;        (** lose the message on the wire *)
  duplicate : bool;   (** enqueue a second copy (ignored when [drop]) *)
  reorder_depth : int;
      (** insert ahead of up to this many already-queued messages;
          [0] preserves FIFO order *)
}

type fault_hook = src:int -> dst:int -> attempt:int -> fault_decision
(** Consulted once per {!send} when installed.  [attempt] is the
    per-directed-channel transmission counter (0-based), so a stateless
    seeded hook yields decisions independent of scheduler call order —
    the basis of deterministic fault plans ({!Fault.Plan} builds
    these). *)

val create :
  ?on_send:(src:int -> dst:int -> unit) ->
  ?metrics:Telemetry.Metrics.t ->
  ?sink:Telemetry.Sink.t ->
  ?shard:int ->
  ?clock:(unit -> float) ->
  ?fault:fault_hook ->
  Tree.t ->
  t
(** Allocates per channel only the four-int queue header (first cell,
    last cell, count, registry position): four words per channel, the
    tree's channel index excluded.  The message cells come from one
    pool, and the active-channel registry is one array sized by the
    nonempty channels; both start small and double when they run out,
    so memory beyond the headers follows the messages in flight, not
    the tree.

    [on_send] is invoked for every enqueued frame — the hook virtual-
    time schedulers use to timestamp deliveries (pass
    [Devent.notify dev]).

    [metrics] registers per-kind send/delivery counters
    ([net.sent.<kind>], [net.delivered.<kind>]), an in-flight gauge with
    high-water mark ([net.in_flight]), a per-channel occupancy
    high-water gauge ([net.channel_occupancy]) and the delivered frames'
    pool gauges ([pool.frames.live], [pool.frames.hwm]).  [sink] (default
    {!Telemetry.Sink.null}) receives a [Sent]/[Delivered] event per
    message, stamped by [clock] and tagged with [shard] (default 0 —
    the sharded engine passes each shard's index so merged fleet traces
    attribute every event); the default clock counts network operations
    (each send and each delivery is one tick), so pass {!Devent.clock}
    to get virtual-time stamps.  With the defaults the instrumentation
    is allocation-free and costs one branch per operation.

    [fault] installs a fault-injection hook.  With no hook the send path
    is identical to the fault-free build (a single [match] on the
    option).  With a hook, each {!send} consults it: a [drop]ped frame
    is counted in the per-kind totals (they count physical
    transmissions) but never queued and never scheduled ([on_send] is
    not invoked for it), and the sender's reference is released; a
    [duplicate] retains the frame once more, then enqueues and schedules
    it twice; [reorder_depth] permutes the frame past up to that many
    older queued frames.  The per-queue invariants and the frame pool's
    reference counts ({!check_invariants}) hold under all of these. *)

val tree : t -> Tree.t

val clock : t -> unit -> float
(** The effective event clock (the [clock] argument, or the internal
    operation-tick counter) — share it with other instrumented layers so
    all events of one run are stamped on the same axis. *)

val send : t -> src:int -> dst:int -> Frame.t -> unit
(** Enqueue a frame on the directed edge [(src,dst)] (subject to the
    fault hook, if any — see {!create}): {!send_chan} on the edge's
    channel id, found by {!Tree.channel}'s search.
    @raise Invalid_argument if [src] and [dst] are not neighbours. *)

val send_chan : t -> int -> Frame.t -> unit
(** [send_chan t c f] enqueues [f] on the directed channel with id [c]
    ({!Tree.channel}); the one send implementation, which {!send} calls.
    A sender that already knows the channel (the mechanism addresses
    neighbours by slot, and the channel to slot [i] of node [u] is
    [Tree.channel_base tree u + i]) skips the search.
    @raise Invalid_argument if [c] is not a channel id of the tree. *)

val in_flight : t -> int
(** Number of queued (sent but undelivered) frames. *)

val is_quiescent : t -> bool
(** No message in transit across any edge (condition (2) of the paper's
    quiescent state). *)

val pop : t -> src:int -> dst:int -> Frame.t option
(** Dequeue the oldest frame on [(src,dst)], if any. *)

val deliver_any : t -> handler:(src:int -> dst:int -> Frame.t -> unit) -> bool
(** Pop from the head of the active-channel registry (the channel that
    has been continuously nonempty the longest, up to swap-removal
    order) and hand the frame to [handler].  Deterministic — a pure
    function of the operation history — and O(1).  Returns [false]
    (without calling [handler]) when the network is quiescent.
    Allocation-free: no option, no tuple. *)

val deliver_random :
  t -> Prng.Splitmix.t -> handler:(src:int -> dst:int -> Frame.t -> unit) -> bool
(** Pop from a uniformly chosen nonempty directed channel — the
    adversarial interleaving used for concurrent executions — and hand
    the frame to [handler].  O(1); draws exactly one PRNG value per
    delivered frame, none when quiescent; no allocation. *)

val nonempty_channels : t -> (int * int) list
(** Debug view: all nonempty directed channels in scan order ([src]
    ascending, then [dst]).  O(edges) — not for use on the delivery hot
    path; the schedulers above maintain this set incrementally. *)

(** {1 Accounting}

    Per-kind totals of physical transmissions: fault drops and
    duplicates count, as do a reliable transport's retransmissions and
    acks.  There is no per-edge count here. *)

val total_of_kind : t -> Kind.t -> int

val total : t -> int
(** Grand total: the paper's cost [C_A (sigma)]. *)

val reset_counters : t -> unit
(** Zero the counters without touching queued frames (or the
    active-channel registry, which reflects queue contents only). *)

val check_invariants : t -> unit
(** Validate the internal bookkeeping: the active-channel registry holds
    exactly the nonempty channels (each exactly once, with consistent
    back-pointers), [in_flight] equals the total number of queued
    frames, and the per-kind totals sum to [total].
    It also audits the cell pool: each channel's list walks exactly
    its count of cells and ends at its last cell, no cell is on two
    lists, free cells hold no frame, and queued plus free cells equal
    the pool's capacity.  And it audits the frame pools: every queued
    frame holds a live reference (no freed frame in flight) and its
    pool's free list is consistent (no double-free).
    @raise Failure describing the first violated invariant.  Intended
    for tests; O(edges + pool capacity). *)
