(** Telemetry event sinks: null or a bounded ring buffer.

    Instrumentation points follow the pattern

    {[
      if Sink.enabled sink then
        Sink.record sink (Sink.Sent { time; src; dst; kind })
    ]}

    so with the {!null} sink no event is ever allocated — the cost of a
    disabled instrumentation point is a single branch.  Message kinds are
    integer indices (the simulator's [Kind.index]); this library has no
    dependency on the simulator.

    Every event carries the shard (domain) it happened on — 0 for
    single-domain components — so per-shard event streams can be merged
    into one fleet trace with each shard on its own track. *)

type event =
  | Sent of { time : float; shard : int; src : int; dst : int; kind : int }
  | Delivered of { time : float; shard : int; src : int; dst : int; kind : int }
  | Lease_set of { time : float; shard : int; granter : int; grantee : int }
  | Lease_broken of { time : float; shard : int; granter : int; grantee : int }
  | Lease_denied of { time : float; shard : int; granter : int; grantee : int }
  | Span_begin of { time : float; shard : int; node : int; name : string; id : int }
  | Span_end of { time : float; shard : int; node : int; name : string; id : int }
  | Mark of { time : float; shard : int; node : int; name : string }

val event_time : event -> float

(** {1 Ring buffer} *)

type ring

val ring : capacity:int -> ring
(** @raise Invalid_argument if [capacity < 1]. *)

val ring_events : ring -> event list
(** Retained events, oldest first (at most [capacity] of them). *)

val ring_length : ring -> int
(** Number of retained events. *)

val ring_total : ring -> int
(** Events recorded since creation or the last {!ring_clear}, including
    overwritten ones. *)

val ring_dropped : ring -> int
(** [ring_total - ring_length]: events overwritten by newer ones. *)

val ring_clear : ring -> unit

(** {1 Sinks} *)

type t = Null | Ring of ring

val null : t

val of_ring : ring -> t

val enabled : t -> bool
(** [false] only for {!null}.  Check before constructing an event to
    keep disabled instrumentation allocation-free. *)

val record : t -> event -> unit
(** No-op on {!null}; appends to the ring (overwriting the oldest once
    full). *)
