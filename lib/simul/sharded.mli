(** Sharded multicore simulation engine.

    The tree is partitioned into shards by subtree ownership
    ({!Tree.Partition}); each shard runs an ordinary single-threaded
    event loop — its own {!Network} over the full topology, its own
    {!Frame} pool — on one OCaml 5 domain.  Shards exchange messages
    through {!Mailbox}es (one per ordered shard pair): a cross-shard
    send copies the frame's bytes out of the sender's pool and the
    receiver re-materialises them from its own, so pools stay
    shard-local and the whole data path stays lock-free.

    {2 Conservative windows}

    The drivers advance virtual time in supersteps.  The cross-shard
    lookahead is one window — the minimum cross-shard latency, since
    every mailbox hop costs at least one window — so within a window
    each shard may freely deliver its local messages (any order is safe
    by the mechanism's confluence), and messages that crossed a shard
    boundary become visible at the next window's ingress.  No shard
    ever delivers a message past the horizon its neighbours have
    reached: window [w] ingests exactly the frames mailed during window
    [w-1].

    One barrier per window is the only synchronisation.  Each mailbox
    has two byte regions, one per window parity: in window [w] a
    sending shard appends its cross-shard frames to region [w land 1]
    on its own domain while the receiving shard drains region
    [(w-1) land 1], and the barrier that ends the window orders the
    two.  When a window ends with no cross-shard frames pending, every
    local network is provably quiescent and every region empty, so the
    drivers jump the window counter straight to the next window with
    scheduled arrivals (the adaptive lookahead) — the skipped windows
    would have executed nothing, and eliding their barrier rounds
    changes no delivery.  {!windows} counts executed windows only.

    {2 Determinism}

    Every scheduling decision is a pure function of the partition and
    the request sequence, never of thread timing: ingress drains
    mailboxes in sender-shard order, initiations run in request order,
    local delivery uses {!Network.deliver_any}'s deterministic registry
    order, and the barrier serialises the termination decision.  Same
    inputs give byte-for-byte identical traffic on every run at every
    domain count.  For differential testing against a {e recorded}
    single-domain schedule, {!run_replay} re-executes an explicit
    delivery schedule across the shards in lockstep instead.

    {2 Accounting}

    Each message is counted exactly once: local sends at the sending
    shard's network, cross-shard sends at the receiving shard's ingress
    ({!total} sums the shard networks, mirroring the sequential
    engine's count).  Per-shard metrics registries expose deliveries,
    windows, window stalls and mailbox traffic. *)

type t

exception Horizon of { windows : int; budget : int }
(** A windowed run executed its budget of 1 000 000 windows without
    terminating (skipped windows do not count). *)

exception Desync of string
(** A replay diverged: the scheduled message was not at the head of its
    channel, i.e. the sharded execution is not reproducing the recorded
    schedule. *)

val create :
  ?wall:(unit -> float) ->
  ?trace:int ->
  ?series:Telemetry.Series.t ->
  ?latency:Telemetry.Latency.t ->
  ?audit:Telemetry.Audit.t ->
  Tree.t ->
  partition:Tree.Partition.partition ->
  handler:(src:int -> dst:int -> Frame.t -> unit) ->
  t
(** [create tree ~partition ~handler] builds the shard runtimes (pools,
    networks, mailboxes, metrics).  [handler] is the protocol's
    delivery handler (e.g. [Mechanism.handler]); it runs on the domain
    owning the destination node and owns each frame it is given.

    [wall] (default [fun () -> 0.]) is the wall clock used to time each
    shard's busy section per window for {!gc_stats} — pass
    [Unix.gettimeofday] (or a monotonic clock) to enable pause
    tracking; the library itself takes no clock dependency.

    {b Fleet observability} (all off by default; the disabled paths are
    one cached-bool branch each):

    - [trace] (default [0] = off): capacity, per shard, of an event
      ring each shard network records into on its own domain
      ([Sent]/[Delivered]; cross-shard messages are stamped at receiver
      ingress), events stamped with the shard id and the shared window
      axis as their clock.  The windowed drivers additionally record
      window-phase spans (ingress/drain per shard, decision per
      window).  Merge with {!fleet_events} / {!fleet_trace}.
    - [series] (default {!Telemetry.Series.null}): windowed
      time-series sampler, fed one sample per executed window from the
      serial section (fleet deliveries and stalls as deltas, pending
      crossings, peak mailbox depth, minor GC words).
    - [latency] (default {!Telemetry.Latency.null}): request-lifecycle
      recorder on the window axis — requests issue at their initiation
      window; the outstanding batch settles at the first end-of-window
      with no pending crossings (the fleet-quiescent points), deliveries
      since the last settle split as message cost.
    - [audit] (default: a fresh {!Telemetry.Audit.t} that raises on
      violation) is {e always on}: every executed window's serial
      section cross-checks the fleet conservation ledgers — sends =
      deliveries + in-flight, cross-out = cross-in + pending mailbox
      frames, live frames = in-flight — at the cost of a few integer
      reads per window.

    Wire the protocol's egress to {!route} and {!pool_for} (e.g. via
    [Mechanism.set_outbox]) before running. *)

val shards : t -> int

val route : t -> src:int -> dst:int -> Frame.t -> unit
(** The egress hook: local destinations enqueue on the sending shard's
    network; cross-shard destinations are copied into the mailbox for
    the owning shard and the sender's reference is released.  Must be
    called on the domain owning [src], or between runs on the calling
    domain (such sends are ingested in the next run's window 1).
    @raise Failure if [frame] was not allocated from the pool of
    [src]'s shard — frames never cross pools. *)

val pool_for : t -> int -> Frame.pool
(** The pool the given {e node}'s frames must be drawn from: its owning
    shard's. *)

(** {1 Drivers}

    Each driver spawns one domain per shard, runs to completion, and
    joins them; [t] is quiescent between runs and reusable.  Worker
    exceptions (including {!Engine.Divergence} from a local drain) are
    re-raised in the caller after all domains are joined. *)

val run_sequential :
  t ->
  requests:(int * (unit -> unit)) array ->
  unit
(** The paper's sequential executions: each [(node, thunk)] request is
    initiated on [node]'s owning domain only once the whole system is
    quiescent again, in array order.  Equivalent to driving the
    single-domain engine with {!Engine.run_to_quiescence} around each
    request — the mechanism's confluence makes the quiescent states
    (and message totals) independent of the delivery order within each
    request.

    This is the one windowed driver not expressed through {!run_feed}:
    its rule is one initiation per fleet-quiescent point, not one per
    due window.  Through [pull]/[next_window], the shard that runs the
    request would have to write the shared cursor from phase B, where
    [run_feed]'s cursors are only read, in the serial section. *)

val run_open :
  t ->
  requests:(int * int * (unit -> unit)) array ->
  unit
(** Concurrent open-loop executions: each [(window, node, thunk)]
    request is initiated at the start of its window on its owner's
    domain, while earlier requests may still have messages in flight.
    [requests] must be sorted by window.  Runs until all requests are
    initiated and the system is quiescent.

    A convenience over {!run_feed}: the array is split into one cursor
    per shard (request order kept within each shard), so the window
    skip, termination and work accounting are exactly [run_feed]'s. *)

val run_feed :
  t ->
  pull:(shard:int -> window:int -> int) ->
  next_window:(shard:int -> int) ->
  unit
(** Generator-driven open-loop executions: requests are pulled on
    demand from caller-supplied per-shard cursors instead of a
    materialised closure array ({!run_open}), so the
    steady-state request path can stay allocation-free (see
    {!Workload.Feed} and [Feed.shard_cursors] for the standard
    producer).

    [pull ~shard ~window] must initiate every request owned by [shard]
    due at or before [window] (in stream order) and return how many it
    ran; it is called in phase B on [shard]'s domain, exactly once per
    executed window.  [next_window ~shard] must return the window of
    [shard]'s next pending request, or [max_int] when the shard's
    stream is exhausted; it is called in the serial section (all
    workers parked on the barrier, so cursor state is safe to read).
    The run terminates when every stream is exhausted and the system
    is quiescent.  Windows with no pending traffic and no due requests
    are skipped (adaptive lookahead).

    Determinism: given pull functions that are pure functions of
    (stream, window) — true of {!Workload.Feed} cursors — the
    execution is a pure function of partition × stream, like the other
    windowed drivers. *)

type step =
  | Deliver of { src : int; dst : int }
  | Init of { node : int; run : unit -> unit }

val run_replay : t -> schedule:step array -> unit
(** Re-execute an explicit schedule, one step at a time, each on the
    owning shard's domain (deliveries on the destination's owner):
    record the single-domain engine's delivery/initiation sequence,
    replay it here, and every handler runs with exactly the state it
    saw sequentially — message-for-message equivalence, not merely
    confluence-equivalence.  The schedule must be complete (end
    quiescent).  @raise Desync if the sharded execution diverges from
    the recorded one. *)

(** {1 Accounting} *)

val total : t -> int
(** Grand message total, summed over shard networks — comparable to
    the sequential engine's [Network.total]. *)

val total_of_kind : t -> Kind.t -> int

val delivered : t -> int
(** Messages delivered to handlers across all shards. *)

val windows : t -> int
(** Windows executed by windowed drivers (cumulative). *)

val stalls : t -> int
(** Shard-windows that did no work — ingested nothing, initiated
    nothing, delivered nothing (cumulative; the barrier-imbalance
    measure of the partition). *)

val crossings : t -> int
(** Messages that crossed a shard boundary (mailbox appends). *)

val deliveries_of : t -> int -> int
(** Messages delivered by shard [s]'s handler (cumulative) — the
    measured per-shard work, i.e. the load the weighted partitioner
    tries to balance. *)

val stalls_of : t -> int -> int
(** Shard [s]'s no-work windows (cumulative). *)

val mailbox_hwm : t -> int -> int
(** Peak backlog of any single inbound mailbox of shard [s] — the
    deepest cross-shard queue the shard ever had to ingest; a
    congestion signal for the partition's cut edges.  Also exported as
    the [shard.mailbox.hwm] gauge after each windowed run. *)

val live_frames : t -> int
(** Live frames summed over the shard pools; 0 at quiescence. *)

val parallel_work : t -> int * int
(** [(total, critical)] work units over the windowed runs so far.  A
    work unit is one ingress copy, initiation, or delivery; [total]
    sums them over every shard-window, [critical] sums each window's
    {e maximum} over shards — the critical path of the parallel
    execution.  [total / critical] is therefore the speedup an ideal
    [shards]-core machine would achieve on this execution: a
    deterministic, host-independent scaling model (both numbers are
    pure functions of the partition and the request sequence). *)

val gc_stats : t -> (float * float) array
(** Per-shard GC health over the windowed runs so far, sampled by each
    worker on its own domain (GC counters are domain-local in OCaml 5):
    [(minor_words, worst_window)] where [minor_words] is the minor-heap
    allocation attributed to that shard's domain and [worst_window] the
    longest busy section of any single window in seconds (0 unless a
    [wall] clock was supplied to {!create}). *)

val is_quiescent : t -> bool

(** {1 Fleet observability}

    Read these on the calling domain after a driver returns — the
    drivers' [Domain.join] is the happens-before edge that makes every
    per-shard structure safe to read. *)

val fleet_metrics : t -> Telemetry.Metrics.t
(** One registry for the whole fleet: {!Telemetry.Metrics.merge} of the
    per-shard registries (exact — counters sum, gauges max, histograms
    merge bucket-wise), which hold counters [shard.deliveries],
    [shard.windows], [shard.stalls], [shard.cross.in] and
    [shard.cross.out] and gauge [shard.mailbox.hwm].  A fresh snapshot
    each call. *)

val latency : t -> Telemetry.Latency.t
(** The recorder passed to {!create} ({!Telemetry.Latency.null} if
    none). *)

val audit : t -> Telemetry.Audit.t
(** The always-on conservation auditor: [Audit.checks] counts ledger
    cross-checks performed (three per executed window). *)

val fleet_events : t -> Telemetry.Sink.event list
(** All per-shard ring events, merged and stably sorted by event time
    (the window axis).  [[]] when not tracing. *)

val trace_dropped : t -> int
(** Events overwritten across the per-shard rings (0 means the [trace]
    capacity held the whole run). *)

val fleet_trace : t -> string
(** {!Telemetry.Export.chrome_trace} [~shards] over {!fleet_events}:
    one Chrome process per shard, one thread per node, plus a
    ["supersteps"] lane per shard carrying the window-phase spans. *)

val check_invariants : t -> unit
(** Per-shard network invariants (including the frame-pool audits),
    pool free-list integrity, and empty mailboxes.
    @raise Failure on the first violation. *)
