(** Execution drivers.

    A protocol is, to the engine, just a handler invoked on every
    delivered frame (the handler may [send] further frames).  Usage:
    [Engine.run_to_quiescence net ~handler] drains a {!Network} into
    [handler]; {!Devent.drain} is the same on virtual time.

    - {!run_to_quiescence} implements the paper's {e sequential
      executions}: a request is initiated in a quiescent state and runs
      until the network is quiescent again.  Delivery order is
      deterministic; the mechanism's sequential behaviour is confluent
      (Lemmas 3.3-3.5), so any order yields the same quiescent state.
    - {!run_concurrent} implements {e concurrent executions}: a list of
      pending request thunks is interleaved with message deliveries under
      a random schedule, which is the adversarial setting of the paper's
      Section 5 (causal consistency). *)

exception Divergence of { deliveries : int; budget : int }
(** A run exceeded its delivery budget without reaching quiescence —
    the protocol (or a fault configuration) is not terminating.
    [deliveries] is the count reached when the guard fired; [budget] the
    configured limit. *)

val run_to_quiescence :
  ?max_deliveries:int ->
  Network.t ->
  handler:(src:int -> dst:int -> Frame.t -> unit) ->
  int
(** Deliver messages until the network is quiescent.  Returns the number
    of deliveries performed.
    @raise Divergence if more than [max_deliveries] (default
    [10^8]) deliveries occur. *)

val run_stream :
  ?max_deliveries:int ->
  ?latency:Telemetry.Latency.t ->
  Network.t ->
  handler:(src:int -> dst:int -> Frame.t -> unit) ->
  next:(unit -> bool) ->
  int
(** Generator-driven sequential executions: repeatedly call [next ()] —
    which initiates the stream's next request and returns [false] once
    the stream is exhausted — delivering the network to quiescence
    after each initiation.  The pull-based replacement for building a
    request array up front: with an allocation-free producer (see
    [Workload.Feed]) the steady-state per-request path allocates zero
    minor words.  Returns total deliveries.  [max_deliveries] bounds
    each inter-request drain, as in {!run_to_quiescence}.

    [latency] (default {!Telemetry.Latency.null}: one branch, no
    allocation) records each request's lifecycle on the network's clock
    axis: issued before its drain, settled at the quiescence the drain
    reaches, with the drain's delivery count as its message cost.
    @raise Divergence as {!run_to_quiescence}. *)

val run_concurrent :
  ?max_deliveries:int ->
  ?sink:Telemetry.Sink.t ->
  ?latency:Telemetry.Latency.t ->
  ?clock:(unit -> float) ->
  rng:Prng.Splitmix.t ->
  Network.t ->
  handler:(src:int -> dst:int -> Frame.t -> unit) ->
  requests:(unit -> unit) array ->
  unit
(** [run_concurrent ~rng net ~handler ~requests] initiates the request
    thunks in array order, but interleaves an arbitrary (randomly chosen)
    number of message deliveries before, between, and after initiations;
    after the last initiation it drains the network.  Request [i] is
    initiated while earlier requests may still have messages in flight —
    the paper's concurrent execution model.

    [sink] receives a [Mark] event per initiation (the [node] field
    carries the request's array index), stamped by [clock] (default: the
    network's own clock, so marks share the message events' time axis).

    [latency] (default {!Telemetry.Latency.null}) records request
    lifecycles without perturbing the schedule — no extra PRNG draws or
    deliveries: each request is issued at its initiation, and all
    outstanding requests settle (in issue order) whenever the random
    schedule reaches a quiescent point, the deliveries since the last
    settle split across the settling batch as their message cost; the
    final drain settles the rest.  Same seed, same quantiles.
    @raise Divergence if total deliveries exceed [max_deliveries]
    (default [10^8]). *)
