(** Message kinds.

    The lease-based mechanism exchanges four kinds of messages in
    failure-free operation (paper Section 3.1); baselines reuse the same
    vocabulary ([Update] for pushed aggregates, [Probe]/[Response] for
    pull).  The network layer counts sent messages per kind, and the
    mechanism per kind and directed edge: the paper's entire cost
    model.

    Two further kinds exist only in the fault-tolerant extension:
    [Hello] is the mechanism's post-restart resynchronization message
    (epoch announcement), and [Ack] is the reliable transport's
    cumulative acknowledgement frame.  Neither appears in a fault-free
    run, so the paper's cost accounting is unchanged there. *)

type t = Probe | Response | Update | Release | Hello | Ack

val all : t list
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val index : t -> int
(** Stable index in [0..5], for array-based counters. *)

val of_index : int -> t
(** Inverse of {!index} (telemetry events carry kinds as indices).
    @raise Invalid_argument outside [0..5]. *)

val count : int
(** Number of kinds. *)
