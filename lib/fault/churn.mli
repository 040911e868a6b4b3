(** Scripted churn at reconfiguration barriers, on both engines.

    The complement to {!Runner}: where the runner injects crashes and
    membership events at virtual {e times} into a faulty transport,
    this module scripts them at {e barriers} — each phase's events
    fire in a globally quiescent state, their recovery traffic
    (failure notifications, depart handoffs, Hello resyncs) drains,
    and only then do the phase's requests run as the paper's
    sequential executions.  Quiescent-state events need no transport
    (no frame is ever in flight to lose), so the identical logical
    protocol runs on the single-domain engine
    ({!Simul.Engine.run_to_quiescence}) and on the multicore engine
    ({!Simul.Sharded}), and the two outcomes must agree — the
    differential drill in [test_churn.ml].

    On the sharded path, every reconfiguration barrier also
    {e repartitions}: the tree is re-split over the new active
    membership ({!Tree.Dyn.partition} — detached nodes weigh zero), a
    fresh sharded runtime is built, and the mechanism's outbox is
    rewired.  The old runtime is quiescent with zero live frames when
    swapped, so repartitioning moves no protocol state. *)

module Make (Op : Agg.Operator.S) : sig
  type event =
    | Crash of int
    | Restart of int
    | Leave of int  (** {!Oat.Mechanism.Make.depart} *)
    | Join of int  (** {!Oat.Mechanism.Make.join} *)

  type phase = { events : event list; requests : Op.t Oat.Request.t list }
  (** Events fire (in order) at the phase's barrier; requests then run
      sequentially.  Requests at nodes that are down or detached when
      the phase starts are counted [skipped], identically on both
      engines (membership is constant within a phase). *)

  type outcome = {
    issued : int;
    skipped : int;
    crashes : int;
    restarts : int;
    leaves : int;
    joins : int;
    logical_msgs : int;  (** mechanism messages (protocol cost) *)
    returned : Op.t option list;  (** combine results, issue order *)
    values : Op.t array;  (** durable value per node at the end *)
    causal_violations : int;
        (** checked on the pre-[repair] history; anti-entropy admits
            are state transfer, not causally ordered history *)
    divergence_before : int;  (** ghost divergence across active edges *)
    divergence_after : int;  (** 0 when [repair] ran *)
    repair_stats : Repair.stats;
  }

  val run_engine :
    ?repair:bool ->
    ?detached:int list ->
    tree:Tree.t ->
    policy:Oat.Policy.factory ->
    phases:phase list ->
    unit ->
    outcome
  (** Single-domain reference: the mechanism's internal network,
      drained to quiescence around every event batch and every
      request.  [repair] (default false) runs a Merkle anti-entropy
      pass ({!Repair.Make.sync}) at the end.  [detached] nodes start
      outside the active tree.
      @raise Invalid_argument on an illegal event (crashing a crashed
      node, detaching a non-leaf, joining with no attached
      neighbour, ...). *)

  val run_sharded :
    ?repair:bool ->
    ?detached:int list ->
    domains:int ->
    tree:Tree.t ->
    policy:Oat.Policy.factory ->
    phases:phase list ->
    unit ->
    outcome
  (** The same scenario on {!Simul.Sharded} at [domains] shards,
      repartitioning at every barrier whose phase has events.  Audits
      shard invariants, quiescence, frame conservation and the
      always-on conservation ledger after every phase.  Deterministic
      in (phases, domains): the windowed schedule is a pure function of
      partition and requests. *)

  val phases_of_plan :
    spec:Plan.spec ->
    requests:Op.t Oat.Request.t list ->
    unit ->
    phase list
  (** Compile a timed {!Plan.spec} into barrier phases: crash windows
      (explicit plus flap expansion) become [Crash]/[Restart] pairs,
      churn events become [Leave]/[Join], all sorted by time; request
      [i] (issued at [(i+1) *. Plan.request_spacing], as {!Runner}
      injects it) lands in the phase after the last event at or before
      its time.  Co-timed events share one barrier.  The spec's
      probabilistic fields are ignored (barrier scheduling has no wire
      to corrupt); its [detached] list is {e not} applied here — pass
      it to [run_engine]/[run_sharded] directly. *)
end
