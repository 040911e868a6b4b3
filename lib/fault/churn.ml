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

  type event = Crash of int | Restart of int | Leave of int | Join of int

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

  (* Membership is constant within a phase (events fire only at its
     barrier), so the skip decision is made when the phase's request
     array is built — identically on both engines. *)
  let eligible sys (q : Op.t Oat.Request.t) =
    M.alive sys q.Oat.Request.node && M.attached sys q.Oat.Request.node

  let finish ?(repair = false) sys ~n ~logical_msgs c =
    (* Causal consistency is judged on the protocol's own history,
       before anti-entropy: repair admits are per-origin catch-up
       batches, not causally interleaved request history. *)
    let logs = Array.init n (fun u -> M.log sys u) in
    let violations = Consistency.Causal.check (module Op) ~n_nodes:n ~logs in
    let divergence_before = R.total_divergence sys in
    let repair_stats = Repair.fresh_stats () in
    let divergence_after =
      if repair then begin
        ignore (R.sync ~stats:repair_stats sys);
        M.check_invariants sys;
        R.total_divergence sys
      end
      else divergence_before
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
          (fun (q : Op.t Oat.Request.t) ->
            if not (eligible sys q) then c.c_skipped <- c.c_skipped + 1
            else begin
              c.c_issued <- c.c_issued + 1;
              (match q.Oat.Request.op with
              | Oat.Request.Write v -> M.write sys ~node:q.Oat.Request.node v
              | Oat.Request.Combine ->
                M.combine sys ~node:q.Oat.Request.node (fun v ->
                    c.c_returned <- Some v :: c.c_returned));
              drain ()
            end)
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
          ph.requests
          |> List.filter_map (fun (q : Op.t Oat.Request.t) ->
                 if not (eligible sys q) then begin
                   c.c_skipped <- c.c_skipped + 1;
                   None
                 end
                 else begin
                   c.c_issued <- c.c_issued + 1;
                   let node = q.Oat.Request.node in
                   match q.Oat.Request.op with
                   | Oat.Request.Write v ->
                     Some (node, fun () -> M.write sys ~node v)
                   | Oat.Request.Combine ->
                     Some
                       ( node,
                         fun () ->
                           M.combine sys ~node (fun v ->
                               c.c_returned <- Some v :: c.c_returned) )
                 end)
          |> Array.of_list
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
  (* Compile a timed plan into barrier phases: churn and crash events
     sort by time, and each request (on the runner's timeline,
     (i+1) * Plan.request_spacing) lands in the phase after the last
     event before it.                                                  *)

  let phases_of_plan ~(spec : Plan.spec) ~requests () =
    let timed_events =
      List.concat_map
        (fun (cr : Plan.crash) ->
          [ (cr.at, Crash cr.node); (cr.at +. cr.down_for, Restart cr.node) ])
        (Plan.crash_windows spec)
      @ List.map
          (fun (c : Plan.churn) ->
            ( c.cat,
              match c.ckind with
              | Plan.Leave -> Leave c.cnode
              | Plan.Join -> Join c.cnode ))
          spec.churn
      |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    in
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
    build timed_events reqs
    |> List.filter (fun ph -> ph.events <> [] || ph.requests <> [])
end
