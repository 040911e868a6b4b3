(* Scripted churn scenarios at reconfiguration barriers, on both
   engines.

   A scenario is a list of phases; each phase applies its membership /
   liveness events in a globally quiescent state (the reconfiguration
   barrier), drains the traffic those events generate (failure
   notifications, handoff updates, Hello resyncs), and only then runs
   its requests as sequential executions.  Because events fire only at
   quiescence, no transport layer is needed (there is never a frame in
   flight to lose), and the single-domain engine and the sharded
   engine execute the same logical protocol — the differential tests
   pin their outcomes equal.

   On the sharded path the reconfiguration barrier is also where the
   partition is recomputed: after the phase's events are drained the
   tree is re-split by [Tree.Dyn.partition] (detached nodes weigh 0), a
   fresh sharded runtime is built on the new partition, and the
   mechanism's outbox is rewired onto it.  Between driver runs the old
   runtime is quiescent with zero live frames, so the swap moves no
   state. *)

module Make (Op : Agg.Operator.S) = struct
  module M = Oat.Mechanism.Make (Op)
  module R = Repair.Make (Op)

  type event = Plan.event =
    | Crash of int | Restart of int | Leave of int | Join of int

  type phase = { events : event list; requests : Op.t Oat.Request.t list }

  type outcome = {
    issued : int;
    skipped : int;
    crashes : int;
    restarts : int;
    leaves : int;
    joins : int;
    logical_msgs : int;
    returned : Op.t option list;  (* combine results, issue order *)
    values : Op.t array;  (* durable value per node at the end *)
    causal_violations : int;
    divergence_before : int;
    divergence_after : int;
    repair_stats : Repair.stats;
  }

  type counters = {
    mutable c_issued : int;
    mutable c_skipped : int;
    mutable c_crashes : int;
    mutable c_restarts : int;
    mutable c_leaves : int;
    mutable c_joins : int;
    mutable c_returned : Op.t option list;  (* reversed *)
  }

  let apply_event dyn sys c = function
    | Crash u ->
      c.c_crashes <- c.c_crashes + 1;
      M.crash sys ~node:u
    | Restart u ->
      c.c_restarts <- c.c_restarts + 1;
      M.restart sys ~node:u
    | Leave u ->
      (match Tree.Dyn.detach dyn u with
      | _handoff -> ()
      | exception Invalid_argument m ->
        invalid_arg ("Fault.Churn: illegal leave: " ^ m));
      c.c_leaves <- c.c_leaves + 1;
      M.depart sys ~node:u
    | Join u ->
      (match Tree.Dyn.attach dyn u with
      | (_ : int list) -> ()
      | exception Invalid_argument m ->
        invalid_arg ("Fault.Churn: illegal join: " ^ m));
      c.c_joins <- c.c_joins + 1;
      M.join sys ~node:u

  (* One request of a phase: counted skipped when its node is down or
     detached, or counted issued and returned as its node and thunk.
     Membership is constant within a phase (events fire only at its
     barrier), so both engines decide alike. *)
  let issue sys c (q : Op.t Oat.Request.t) =
    let node = q.Oat.Request.node in
    if not (M.alive sys node && M.attached sys node) then begin
      c.c_skipped <- c.c_skipped + 1;
      None
    end
    else begin
      c.c_issued <- c.c_issued + 1;
      Some
        ( node,
          match q.Oat.Request.op with
          | Oat.Request.Write v -> fun () -> M.write sys ~node v
          | Oat.Request.Combine ->
            fun () ->
              M.combine sys ~node (fun v ->
                  c.c_returned <- Some v :: c.c_returned) )
    end

  let finish ?repair sys ~n ~logical_msgs c =
    (* Causal consistency is judged on the protocol's own history,
       before anti-entropy: repair admits are per-origin catch-up
       batches, not causally interleaved request history. *)
    let logs = Array.init n (fun u -> M.log sys u) in
    let violations = Consistency.Causal.check (module Op) ~n_nodes:n ~logs in
    let divergence_before, divergence_after, repair_stats =
      R.heal ?repair sys
    in
    {
      issued = c.c_issued;
      skipped = c.c_skipped;
      crashes = c.c_crashes;
      restarts = c.c_restarts;
      leaves = c.c_leaves;
      joins = c.c_joins;
      logical_msgs;
      returned = List.rev c.c_returned;
      values = Array.init n (fun u -> M.local_value sys u);
      causal_violations = List.length violations;
      divergence_before;
      divergence_after;
      repair_stats;
    }

  let fresh_counters () =
    {
      c_issued = 0;
      c_skipped = 0;
      c_crashes = 0;
      c_restarts = 0;
      c_leaves = 0;
      c_joins = 0;
      c_returned = [];
    }

  (* ---------------------------------------------------------------- *)
  (* Single-domain reference: the mechanism's internal network driven
     by [Engine.run_to_quiescence] around every event batch and every
     request — the paper's sequential executions.                      *)

  let run_engine ?repair ?(detached = []) ~tree ~policy ~phases () =
    let n = Tree.n_nodes tree in
    let dyn = Tree.Dyn.create ~detached tree in
    let sys = M.create ~ghost:true ~detached tree ~policy in
    let c = fresh_counters () in
    let drain () =
      ignore
        (Simul.Engine.run_to_quiescence (M.network sys)
           ~handler:(M.handler sys))
    in
    List.iter
      (fun ph ->
        List.iter (apply_event dyn sys c) ph.events;
        drain ();
        List.iter
          (fun q ->
            Option.iter
              (fun (_, start) ->
                start ();
                drain ())
              (issue sys c q))
          ph.requests)
      phases;
    M.check_invariants sys;
    finish ?repair sys ~n ~logical_msgs:(M.message_total sys) c

  (* ---------------------------------------------------------------- *)
  (* Sharded path: same phases, repartitioned at every reconfiguration
     barrier.                                                          *)

  let run_sharded ?repair ?(detached = []) ~domains ~tree
      ~policy ~phases () =
    if domains < 1 then invalid_arg "Fault.Churn.run_sharded: domains < 1";
    let n = Tree.n_nodes tree in
    let dyn = Tree.Dyn.create ~detached tree in
    let sys = M.create ~ghost:true ~detached tree ~policy in
    let c = fresh_counters () in
    let make_sh () =
      let part = Tree.Dyn.partition dyn ~shards:domains in
      let sh =
        Simul.Sharded.create tree ~partition:part
          ~handler:(M.handler sys)
      in
      M.set_outbox sys
        ~send:(Simul.Sharded.route sh)
        ~pool_for:(Simul.Sharded.pool_for sh);
      sh
    in
    let sh = ref (make_sh ()) in
    let drained name =
      Simul.Sharded.check_invariants !sh;
      if not (Simul.Sharded.is_quiescent !sh) then
        failwith ("Fault.Churn: sharded runtime not quiescent after " ^ name);
      if Simul.Sharded.live_frames !sh <> 0 then
        failwith ("Fault.Churn: frames leaked after " ^ name)
    in
    List.iter
      (fun ph ->
        if ph.events <> [] then begin
          (* reconfiguration barrier: all domains joined, system
             quiescent — events mutate membership and enqueue their
             recovery traffic through the current outbox *)
          List.iter (apply_event dyn sys c) ph.events;
          Simul.Sharded.run_sequential !sh ~requests:[||];
          drained "reconfiguration";
          (* re-split on the new active set; the old runtime holds no
             frames, so the swap is pure control plane *)
          sh := make_sh ()
        end;
        let requests =
          Array.of_list (List.filter_map (issue sys c) ph.requests)
        in
        Simul.Sharded.run_sequential !sh ~requests;
        drained "phase")
      phases;
    Telemetry.Audit.(
      if violations (Simul.Sharded.audit !sh) <> 0 then
        failwith "Fault.Churn: conservation audit violated");
    M.check_invariants sys;
    finish ?repair sys ~n ~logical_msgs:(M.message_total sys) c

  (* ---------------------------------------------------------------- *)
  (* Compile a timed plan into barrier phases: each request (on the
     runner's timeline, (i+1) * Plan.request_spacing) lands in the phase
     after the last event of Plan.timeline before it.                  *)

  let phases_of_plan ~(spec : Plan.spec) ~requests () =
    if spec.drop > 0.0 || spec.duplicate > 0.0 || spec.reorder > 0.0
       || spec.delay > 0.0
    then
      invalid_arg
        "Fault.Churn.phases_of_plan: barrier phases have no wire to \
         corrupt (drop, dup, reorder and delay must be 0)";
    let reqs =
      List.mapi
        (fun i q -> (float_of_int (i + 1) *. Plan.request_spacing, q))
        requests
    in
    (* Split the request timeline at each event time; a request at
       exactly an event's time runs after it, matching the runner's
       scheduling of same-time events before deliveries.  Co-timed
       events share one barrier. *)
    let rec build evs rs =
      match evs with
      | [] -> [ { events = []; requests = List.map snd rs } ]
      | (t0, _) :: _ ->
        let same, later = List.partition (fun (t, _) -> t <= t0) evs in
        let before, after = List.partition (fun (tq, _) -> tq < t0) rs in
        { events = []; requests = List.map snd before }
        ::
        (match build later after with
        | { events = []; requests } :: tl ->
          { events = List.map snd same; requests } :: tl
        | tl -> { events = List.map snd same; requests = [] } :: tl)
    in
    build (Plan.timeline spec) reqs
    |> List.filter (fun ph -> ph.events <> [] || ph.requests <> [])
end
