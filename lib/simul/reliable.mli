(** Reliable transport over a faulty {!Network}.

    The mechanism's correctness precondition (paper Section 3) is
    reliable exactly-once FIFO channels.  This layer restores that
    abstraction on top of a network with an installed fault hook
    ({!Network.create}'s [fault]): every frame is stamped with a
    per-directed-channel sequence number, receivers deduplicate and
    buffer out-of-order frames, acknowledge cumulatively, and senders
    retransmit the unacked window (go-back-N) on a timeout driven by
    {!Devent}'s virtual-time axis, with exponential backoff.

    The transport is monomorphic over pooled binary {!Frame}s: the
    sequence number and incarnation stamps live in the frame header
    (no wrapper variant), the retransmission buffer holds the frames
    themselves, and a retransmission resends the identical frame with
    no re-encode.  Acks are pooled frames of kind {!Kind.Ack} whose
    cumulative sequence rides in the header's seq field, so the whole
    transport allocates nothing on the steady-state path beyond its
    ack frames — which recycle through the pool.

    Crashes are session resets: {!crash} bumps the node's incarnation
    number — voiding every in-flight frame stamped for the previous
    incarnation, like a connection RST — and drops the unacked windows
    of all incident channels (frames lost to the crash are counted as
    teardown drops, to be recovered by the protocol layer above, not
    the transport).  {!restart} re-establishes all incident sessions
    from sequence 0.  Between two incarnations, delivery is exactly
    once and FIFO (the QCheck property in [test_reliable.ml]).

    Everything is deterministic: retransmission timing is virtual,
    fault decisions are seeded, so same-seed runs reproduce byte for
    byte. *)

type t

val create :
  ?metrics:Telemetry.Metrics.t ->
  ?pool:Frame.pool ->
  ?rto:float ->
  ?max_rto:float ->
  ?jitter:float ->
  ?seed:int ->
  timer:Devent.t ->
  net:Network.t ->
  deliver:(src:int -> dst:int -> Frame.t -> unit) ->
  unit ->
  t
(** [deliver] receives each data frame exactly once, in FIFO order per
    directed channel (within one incarnation pair), and owns the
    reference it is handed — the consumer releases it.  [pool] is
    where ack frames are drawn from (default: a private ["rel.acks"]
    pool); pass the mechanism's pool to keep one leak-audited pool per
    system.  [rto] (default 4.0) is the initial retransmission timeout
    in virtual-time units, doubled per expiry up to [max_rto] (default
    64.0).  [jitter] (default 0.0 — exact
    backoff, bit-compatible with earlier runs) spreads each timer
    firing by a deterministic factor in [\[1, 1 + jitter)], drawn from
    a stateless hash of ([seed], channel, lifetime arm index): long
    crash windows no longer expire every incident channel's timer in
    lock-step, and the same ([seed], workload) still reproduces byte
    for byte.  [metrics] registers [net.retransmits],
    [net.dedup_drops], [net.stale_drops] and [net.teardown_drops]
    counters.
    @raise Invalid_argument unless [rto > 0], [max_rto >= rto] and
    [jitter >= 0]. *)

val send : t -> src:int -> dst:int -> Frame.t -> unit
(** Stamp (sequence number, incarnations), buffer and transmit a
    frame; arms the channel's retransmission timer if it was idle.
    Consumes the caller's reference — the frame is held in the unacked
    window until cumulatively acknowledged, and each physical
    transmission retains one more reference for the network queue.
    @raise Invalid_argument if [src] is crashed, or [(src,dst)] is not
    an edge. *)

val handle : t -> src:int -> dst:int -> Frame.t -> unit
(** Process a frame popped from the underlying network (the callback
    to wire into {!Devent.drain}'s [deliver]).  Consumes the
    reference: in-order data frames are passed up to [deliver],
    everything else (acks, duplicates, stale frames, frames for a
    crashed node) is released here; out-of-order frames are parked in
    the reorder buffer until their turn. *)

(** {1 Crash/recovery} *)

val crash : t -> node:int -> unit
(** Take a node down: bump its incarnation and tear down all incident
    sessions (unacked windows dropped and released, timers cancelled).
    @raise Invalid_argument if already down. *)

val restart : t -> node:int -> unit
(** Bring a node back up, re-establishing all incident sessions from
    sequence 0.  @raise Invalid_argument if not down. *)

val is_up : t -> int -> bool

val incarnation : t -> int -> int
(** Number of crashes this node has suffered. *)

(** {1 Accounting} *)

val unacked : t -> int
(** Frames buffered for (possible) retransmission across all
    channels. *)

val is_quiescent : t -> bool
(** No unacked frame anywhere — with a quiescent underlying network,
    the whole transport is idle. *)

val retransmits : t -> int
val dedup_drops : t -> int
val stale_drops : t -> int

val teardown_drops : t -> int
(** Frames dropped by session teardown (crash/restart) plus frames
    that arrived at a crashed node. *)

val check_invariants : t -> unit
(** Window arithmetic ([s_base + |unacked| = s_next]), every buffered
    frame live and stamped with its window position, no buffered frame
    below the receive cursor, global unacked count consistent.
    @raise Failure on the first violation.  For tests. *)
