(** Fault-injection harness: the full stack on one virtual clock.

    [Make (Op)] wires, bottom to top:

    - a {!Simul.Network} with the plan's fault hook installed and the
      plan's latency adversary driving a {!Simul.Devent} axis (the
      {e physical} network — drops, duplicates, reorders, delays),
      drained by [Devent.drain];
    - a {!Simul.Reliable} transport restoring exactly-once FIFO
      delivery over it, retransmission timers on the same clock;
    - the {!Oat.Mechanism} on top, attached to the transport through
      {!Oat.Mechanism.Make.set_outbox} like any other transport: its
      own network stays idle, its ledger measures the {e logical}
      protocol cost, and the physical network counts frames on the
      wire.

    Crashes and restarts from the plan's schedule fire as timers and
    hit transport and mechanism together; requests are injected on the
    plan's request timeline ({!Plan.request_spacing}).  The run then
    drains to quiescence and the execution history is checked causally
    ({!Consistency.Causal.check}).  Everything is deterministic in
    (plan seed, spec, workload). *)

module Make (Op : Agg.Operator.S) : sig
  type outcome = {
    n_requests : int;
    issued : int;  (** initiated at a live node *)
    skipped : int;  (** initiating node was down — request discarded *)
    writes : int;
    combines : int;
    exact : int;  (** combines completed with an empty cut *)
    partial : int;  (** combines completed with a nonempty cut *)
    lost : int;  (** combines whose initiator crashed before completion *)
    logical_msgs : int;
        (** messages the mechanism sent (protocol cost): its ledger,
            {!Oat.Mechanism.Make.message_total} *)
    physical_msgs : int;  (** frames on the wire: data + acks + retransmits *)
    retransmits : int;
    dedup_drops : int;
    stale_drops : int;
    teardown_drops : int;
    faults_dropped : int;
    faults_duplicated : int;
    faults_reordered : int;
    faults_delayed : int;
    crashes : int;  (** crash events executed *)
    leaves : int;  (** departures executed *)
    joins : int;  (** joins executed *)
    events : int;  (** virtual-time events processed (deliveries + timers) *)
    makespan : float;  (** virtual time at quiescence *)
    mean_combine_latency : float;  (** over completed combines; 0 if none *)
    values : Op.t array;
        (** durable value per node at quiescence (before any [repair]
            pass); a departed node's value was handed off, so their
            fold is the active tree's aggregate *)
    causal_violations : int;
        (** from {!Consistency.Causal.check} on the protocol's own
            history, before any [repair] pass (anti-entropy admits are
            per-origin state transfer, not causally ordered history);
            0 = consistent *)
    divergence_before : int;
        (** ghost-log divergence across active edges at quiescence,
            before any anti-entropy ({!Repair.Make.total_divergence}) *)
    divergence_after : int;  (** after the repair pass; 0 when [repair] ran *)
    repair_stats : Repair.stats;  (** all zero unless [repair] ran *)
  }

  val pp_outcome : Format.formatter -> outcome -> unit
  (** Deterministic multi-line rendering (one [key: value] per line;
      [values] is left out). *)

  val run :
    ?metrics:Telemetry.Metrics.t ->
    ?plan:Plan.t ->
    ?rto_max:float ->
    ?jitter:float ->
    ?repair:bool ->
    tree:Tree.t ->
    policy:Oat.Policy.factory ->
    requests:Op.t Oat.Request.t list ->
    unit ->
    outcome
  (** Request [i] (0-based) is injected at virtual time
      [(i + 1) *. Plan.request_spacing].  The transport's
      retransmission timeout starts at 4.0 and grows up to [rto_max]
      (transport default 64.0) with deterministic [jitter] (default
      0.0 — see {!Simul.Reliable.create}; the jitter hash is seeded
      from the plan's seed).  [metrics] is shared by the physical
      network ([net.sent.*], [net.delivered.*], [net.in_flight], ...:
      the wire, so data frames, acks and retransmissions), mechanism
      ([mech.*]), transport ([net.retransmits], ...) and plan
      ([fault.injected.*]); pass the same registry given to
      [Plan.create].  With no [plan] the stack still runs over the
      transport, fault-free.

      The plan's crash windows (explicit plus flap expansion) hit
      transport and mechanism together; its churn schedule drives
      {!Oat.Mechanism.Make.depart}/[join].  A leave is put off one time
      unit at a time while the leaver still counts a neighbour down
      ({!Oat.Mechanism.Make.known_down}): a restarted handoff
      neighbour's Hello reaches it a hop after the restart, later
      under drops.  [leaves] counts the departures run.  Requests whose node is
      down {e or detached} at injection time are counted [skipped].
      Nodes in the spec's [detached] list start outside the active
      tree.

      After the drain and audits, ghost-log divergence across active
      edges is measured ([divergence_before]); with [repair = true]
      (default false) a Merkle anti-entropy pass ({!Repair.Make.sync})
      then reconciles the active tree to [divergence_after = 0],
      with message cost in [repair_stats].

      Audits {!Oat.Mechanism.Make.check_invariants} and both network
      layers' invariants after the drain, and fails if any layer is
      not quiescent.
      @raise Invalid_argument if a scheduled crash or churn event
      names a node outside the tree, or a churn event is illegal at
      execution time (departing non-leaf, leaver down). *)
end
