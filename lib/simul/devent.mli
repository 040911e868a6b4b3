(** Virtual-time (discrete-event) delivery scheduling.

    Message counts — the paper's cost model — are order-insensitive, but
    the paper's motivation also argues about {e latency} ("a strategy
    tuned for write-dominated workloads is likely to suffer from
    unnecessary latency ... on read-dominated workloads").  This module
    adds a virtual clock on top of {!Network}: every send is stamped
    with a per-directed-edge latency, and deliveries are replayed in
    timestamp order, so the completion time of a request becomes
    observable (e.g. a warm RWW combine completes at latency 0; an
    MDS-2-style combine pays a full round trip to the deepest node).

    FIFO is preserved even under varying latencies: a message is never
    scheduled before an earlier message on the same directed edge.

    Usage: create the network with [~on_send:(Devent.notify dev)], then
    [Devent.drain dev net ~handler] — the virtual-time counterpart of
    [Engine.run_to_quiescence net ~handler]. *)

type t

val create : latency:(src:int -> dst:int -> float) -> t
(** Fresh clock at time 0.  [latency] must be positive. *)

val unit_latency : src:int -> dst:int -> float
(** Every hop takes one time unit. *)

val now : t -> float
(** Current virtual time (the timestamp of the delivery in progress, or
    of the last completed one). *)

val clock : t -> unit -> float
(** {!now} as a closure — the clock to hand to instrumented components
    ({!Network.create}'s [clock]) so telemetry events carry virtual-time
    stamps. *)

val advance_to : t -> float -> unit
(** Move the clock forward (e.g. between requests of a sequential
    workload).  Ignored if the time is in the past. *)

val notify : t -> src:int -> dst:int -> unit
(** Record a send at the current time; its delivery is scheduled at
    [max (now + latency) (last scheduled on the same edge)]. *)

val at : t -> float -> (unit -> unit) -> unit
(** Schedule a callback at an absolute virtual time (clamped to [now] if
    already past).  Timers share the event axis with deliveries — ties
    resolve in scheduling order — but are exempt from the per-edge FIFO
    floor.  Used for retransmission timeouts ({!Reliable}), crash/restart
    schedules and timed request injection. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t d f] is [at t (now t +. d) f].
    @raise Invalid_argument if [d < 0]. *)

val pending : t -> int

val drain :
  t -> Network.t -> handler:(src:int -> dst:int -> Frame.t -> unit) -> int
(** Process everything in timestamp order, advancing the clock: a
    scheduled delivery pops the oldest frame of its channel in [net]
    and hands it to [handler]; a timer runs its callback.  Handlers and
    timers may send (scheduling further deliveries through {!notify})
    and call {!at}.  Returns the number of events processed (deliveries
    and timer firings).
    @raise Failure if a scheduled channel is empty: [net]'s [on_send]
    is not this clock's {!notify}. *)
