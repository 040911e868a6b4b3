(** Request-lifecycle latency accounting on a virtual-time axis.

    A recorder tracks requests from {!issue} to settle.  The time axis
    is whatever the caller feeds in — delivery ticks for the sequential
    engine, window numbers for the sharded one — and latencies land in a
    power-of-two-bucket {!Metrics.histogram}, next to a second histogram
    of messages-per-request, so tail quantiles
    (p50/p90/p99/max) come out without retaining per-request records.

    Settling is FIFO: requests complete in issue order, which matches
    both engines' quiescence rule (when the system drains, everything
    issued before the drain has settled).  The FIFO stores runs — one
    (issue time, count) entry per distinct consecutive issue time — so
    its memory grows with the distinct outstanding issue times, not with
    the requests: the sharded engine issues a whole window's requests at
    one instant and keeps one entry per window.  The histograms read as
    if each request had been settled on its own.  All operations after
    creation are allocation-free except occasional FIFO doubling; the
    disabled recorder {!null} reduces every operation to one cached-bool
    branch. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh enabled recorder.  [capacity] (default 1024) is the initial
    FIFO size in runs; it doubles as needed. *)

val null : t
(** The disabled recorder: every operation is a no-op. *)

val enabled : t -> bool

val issue : t -> float -> unit
(** [issue t time] marks one request issued at [time]; it joins the
    newest run when that run was issued at the same [time]. *)

val settle_oldest : t -> time:float -> msgs:int -> unit
(** Settle the oldest outstanding request at [time], attributing [msgs]
    message deliveries to it.  No-op if nothing is outstanding. *)

val settle_all : t -> time:float -> msgs:int -> unit
(** Settle every outstanding request at [time] — the quiescence rule.
    [msgs] deliveries since the last settle point are split evenly over
    the batch (remainder on the earliest), keeping the total exact. *)

val record : t -> issued:float -> settled:float -> msgs:int -> unit
(** Record one complete lifecycle directly, bypassing the FIFO. *)

val outstanding : t -> int

val issued : t -> int

val settled : t -> int

val quantile : t -> float -> int
(** Latency quantile in virtual-time units (upper bucket edge clamped to
    the observed max, as {!Metrics.quantile}).  0 when empty. *)

val max_latency : t -> int

val mean_latency : t -> float

val msgs_quantile : t -> float -> int

val max_msgs : t -> int

val mean_msgs : t -> float

val reset : t -> unit

val to_text : t -> string
(** Three-line report: issued/settled counts, latency quantiles,
    messages-per-request quantiles. *)

val to_json : t -> string
