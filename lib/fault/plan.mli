(** Seeded, deterministic fault plans.

    A plan is a pure function from an integer seed and a {!spec} to a
    complete adversary: per-message drop/duplicate/reorder decisions
    (installed as a {!Simul.Network.fault_hook}), per-message extra
    latency (wrapped around a {!Simul.Devent} latency function), and a
    schedule of node crashes with restart times.

    Every decision is a stateless hash of
    [(seed, stream, src, dst, attempt)] — not a draw from a shared
    mutable generator — so the decision for the [k]-th transmission on a
    directed edge does not depend on what any other edge did, on
    scheduler interleaving, or on how many retransmissions the transport
    issued elsewhere.  Same seed, same spec, same workload: byte-for-
    byte identical runs.  That is what makes faulty executions
    regression-testable (golden outcome records in [test_recovery.ml])
    and CLI-reproducible ([oat simulate --faults SPEC --seed N]). *)

type crash = {
  node : int;
  at : float;  (** virtual time of the crash *)
  down_for : float;  (** restart happens at [at +. down_for] *)
}

type flap = {
  fnode : int;
  fat : float;  (** first crash *)
  fdown : float;  (** downtime of each window *)
  fcount : int;  (** number of crash/restart cycles *)
  fperiod : float;  (** spacing between successive crashes *)
}
(** Repeated per-node crash windows (flapping): sugar for [fcount]
    crash windows of [fdown] starting at [fat], [fat +. fperiod], ...
    Expanded by {!crash_windows}; {!validate} still rejects overlapping
    windows after expansion. *)

type churn_kind = Leave | Join

type churn = { cnode : int; cat : float; ckind : churn_kind }
(** A membership event: the node departs from ([Leave]) or attaches to
    ([Join]) the active aggregation tree at virtual time [cat] (see
    {!Mechanism.Make.depart}/[join]). *)

type spec = {
  drop : float;  (** P(message lost on the wire), in [\[0, 1)] *)
  duplicate : float;  (** P(message enqueued twice) *)
  reorder : float;  (** P(message jumps ahead in its channel queue) *)
  reorder_depth : int;
      (** max messages jumped over (uniform in [\[1, depth\]]) *)
  delay : float;  (** P(a send pays extra latency) *)
  delay_max : int;
      (** max extra latency in whole time units (uniform in
          [\[1, delay_max\]]) *)
  crashes : crash list;
  flaps : flap list;
  churn : churn list;
  detached : int list;
      (** nodes that start outside the active tree (their first churn
          event, if any, must be a [Join]) *)
}

val none : spec
(** All probabilities zero, no crashes — the identity adversary. *)

val validate : spec -> (spec, string) result
(** Probabilities in range ([drop < 1] so retransmission terminates),
    depths/bounds positive where the matching probability is, crash and
    flap times finite and non-negative with positive downtime, per-node
    crash intervals (after flap expansion) non-overlapping, [detached]
    duplicate-free, and the churn schedule per-node consistent: events
    strictly ordered in time, alternating leave/join starting from the
    initial membership, with every crash window falling entirely inside
    an attached period. *)

val crash_windows : spec -> crash list
(** Every crash window the plan schedules: the explicit [crashes] plus
    the expansion of each flap.  This is the list drivers execute. *)

val request_spacing : float
(** The request timeline {!Runner} and {!Churn} share: request [i]
    (0-based) of a run is issued at virtual time
    [(i + 1) *. request_spacing], with [request_spacing = 2.0].
    {!Runner} injects requests at these times, and
    {!Churn.Make.phases_of_plan} splits the same timeline at the plan's
    event times, so the two engines put every request on the same side
    of every event. *)

val spec_of_string : string -> (spec, string) result
(** Parse a comma-separated spec, e.g.
    ["drop=0.1,crash=3@40+25,flap=2@10+4*3:20,leave=5@30,join=5@60"].
    Fields (all optional; omitted = off): [drop=P], [dup=P],
    [reorder=P\[:DEPTH\]], [delay=P\[:MAX\]], [crash=NODE@AT+DOWNTIME],
    [flap=NODE@AT+DOWN*COUNT:PERIOD], [leave=NODE@AT], [join=NODE@AT],
    [detached=NODE] (the last five repeatable).  [""] and ["none"]
    parse to {!none}.  The result is {!validate}d. *)

val spec_to_string : spec -> string
(** Canonical round-trippable form ([{!spec_of_string}] inverse);
    ["none"] for the identity adversary. *)

type t
(** A plan: a validated spec bound to a seed, with injection
    counters. *)

val create : ?metrics:Telemetry.Metrics.t -> seed:int -> spec -> t
(** [metrics] registers counters [fault.injected.drop], [.duplicate],
    [.reorder], [.delay], [.crash], [.restart], [.leave], [.join].
    @raise Invalid_argument if the spec does not {!validate}. *)

val seed : t -> int
val spec : t -> spec

val hook : t -> Simul.Network.fault_hook
(** The drop/duplicate/reorder adversary, for
    {!Simul.Network.create}'s [fault]. *)

val latency : t -> base:(src:int -> dst:int -> float) -> src:int -> dst:int -> float
(** The delay adversary: [base] plus a seeded extra on a [delay]-coin
    per call, counted per directed edge.  Returns [base] itself when
    [delay = 0]. *)

(** {1 Injection accounting}

    [count_crash]/[count_restart]/[count_leave]/[count_join] are called
    by the driver ({!Runner}) when it executes a scheduled
    crash/restart/leave/join, so that all [fault.injected.*] counters
    live in one place. *)

val count_crash : t -> unit
val count_restart : t -> unit
val count_leave : t -> unit
val count_join : t -> unit

val drops : t -> int
val duplicates : t -> int
val reorders : t -> int
val delays : t -> int
val crashes_executed : t -> int
val leaves_executed : t -> int
val joins_executed : t -> int

(** {1 Seeded churn synthesis} *)

val synth_churn :
  seed:int ->
  tree:Tree.t ->
  order:int list ->
  rate:float ->
  horizon:float ->
  churn list
(** Roll the {!Tree.Dyn} membership automaton forward at one event per
    [1/rate] time units until [horizon], recording the legal moves it
    makes: each tick detaches an active leaf or re-attaches a detached
    node, drawn (seeded, deterministic) among the first few eligible
    nodes of [order] — pass an overlay-aware order such as
    {!Dht.Plaxton.churn_order} to bias who churns.  The result is a
    valid churn schedule for a spec with no initially [detached] nodes
    and no crash windows on churning nodes.  [rate <= 0] yields []. *)
