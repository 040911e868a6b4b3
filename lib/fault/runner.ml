(* Mechanism over Reliable over a faulty Network, all on one Devent
   virtual-time axis.  The mechanism attaches to the transport through
   [set_outbox], as it attaches to the sharded router: its own network
   stays idle, and its ledger keeps counting the logical protocol cost
   while the physical network counts frames on the wire. *)

module Make (Op : Agg.Operator.S) = struct
  module M = Oat.Mechanism.Make (Op)
  module R = Repair.Make (Op)
  module Net = Simul.Network
  module Rel = Simul.Reliable
  module Dev = Simul.Devent

  type outcome = {
    n_requests : int;
    issued : int;
    skipped : int;
    writes : int;
    combines : int;
    exact : int;
    partial : int;
    lost : int;
    logical_msgs : int;
    physical_msgs : int;
    retransmits : int;
    dedup_drops : int;
    stale_drops : int;
    teardown_drops : int;
    faults_dropped : int;
    faults_duplicated : int;
    faults_reordered : int;
    faults_delayed : int;
    crashes : int;
    leaves : int;
    joins : int;
    events : int;
    makespan : float;
    mean_combine_latency : float;
    values : Op.t array;
    causal_violations : int;
    divergence_before : int;
    divergence_after : int;
    repair_stats : Repair.stats;
  }

  let pp_outcome ppf o =
    let line k ppv =
      Format.fprintf ppf "%-22s %t@," (k ^ ":") ppv
    in
    let int k v = line k (fun ppf -> Format.pp_print_int ppf v) in
    let flt k v = line k (fun ppf -> Format.fprintf ppf "%.2f" v) in
    Format.pp_open_vbox ppf 0;
    int "requests" o.n_requests;
    int "issued" o.issued;
    int "skipped" o.skipped;
    int "writes" o.writes;
    int "combines" o.combines;
    int "exact" o.exact;
    int "partial" o.partial;
    int "lost" o.lost;
    int "logical msgs" o.logical_msgs;
    int "physical msgs" o.physical_msgs;
    int "retransmits" o.retransmits;
    int "dedup drops" o.dedup_drops;
    int "stale drops" o.stale_drops;
    int "teardown drops" o.teardown_drops;
    int "faults dropped" o.faults_dropped;
    int "faults duplicated" o.faults_duplicated;
    int "faults reordered" o.faults_reordered;
    int "faults delayed" o.faults_delayed;
    int "crashes" o.crashes;
    int "leaves" o.leaves;
    int "joins" o.joins;
    int "events" o.events;
    flt "makespan" o.makespan;
    flt "mean combine latency" o.mean_combine_latency;
    int "causal violations" o.causal_violations;
    int "divergence before" o.divergence_before;
    int "divergence after" o.divergence_after;
    line "repair" (fun ppf -> Repair.pp_stats ppf o.repair_stats);
    Format.pp_close_box ppf ()

  let run ?metrics ?plan ?rto_max ?(jitter = 0.0) ?(repair = false) ~tree
      ~policy ~requests () =
    let n = Tree.n_nodes tree in
    let base = Dev.unit_latency in
    let latency =
      match plan with None -> base | Some p -> Plan.latency p ~base
    in
    let dev = Dev.create ~latency in
    (* The registry's net.* counters are the physical network's: they
       count the wire — data frames, acks and retransmissions.  The
       mechanism's idle network registers the same names and never
       writes them. *)
    let phys =
      Net.create ?metrics
        ?fault:(Option.map Plan.hook plan)
        ~on_send:(Dev.notify dev) ~clock:(Dev.clock dev) tree
    in
    let detached =
      match plan with None -> [] | Some p -> (Plan.spec p).detached
    in
    let s =
      M.create ~ghost:true ?metrics ~detached ~clock:(Dev.clock dev) tree
        ~policy
    in
    (* acks share the mechanism's frame pool: one leak audit covers the
       whole data plane *)
    let pool = M.frame_pool s in
    let rel =
      Rel.create ?metrics ~pool ?max_rto:rto_max ~jitter
        ~seed:(match plan with Some p -> Plan.seed p | None -> 0)
        ~timer:dev ~net:phys ~deliver:(M.handler s) ()
    in
    M.set_outbox s ~send:(Rel.send rel) ~pool_for:(fun _ -> pool);
    (* Crash/restart schedule.  Transport first on both edges: the
       crash voids in-flight frames before the mechanism's failure
       notifications send recovery traffic, and the restart gives the
       mechanism fresh sessions for its Hello exchange. *)
    (match plan with
    | None -> ()
    | Some p ->
      List.iter
        (fun (c : Plan.crash) ->
          if c.node < 0 || c.node >= n then
            invalid_arg
              (Printf.sprintf "Fault.Runner.run: crash node %d outside tree"
                 c.node);
          Dev.at dev c.at (fun () ->
              Plan.count_crash p;
              Rel.crash rel ~node:c.node;
              M.crash s ~node:c.node);
          Dev.at dev
            (c.at +. c.down_for)
            (fun () ->
              Plan.count_restart p;
              Rel.restart rel ~node:c.node;
              M.restart s ~node:c.node))
        (Plan.crash_windows (Plan.spec p));
      (* Membership schedule.  The transport stays up through both
         transitions: a departed node's channels idle (the mechanism
         discards frames across detached slots at both ends), and a
         join's Hello resync rides the established sessions.  A leave
         waits while the leaver still counts a neighbour down: after its
         handoff neighbour restarts, the Hello announcing it reaches the
         leaver a hop later, and later still under drops, so the leave
         is put off one time unit at a time and counted when it runs. *)
      let rec leave node () =
        if Oat.Mechanism.IntSet.is_empty (M.known_down s node) then begin
          Plan.count_leave p;
          M.depart s ~node
        end
        else Dev.after dev 1.0 (leave node)
      in
      List.iter
        (fun (c : Plan.churn) ->
          if c.cnode < 0 || c.cnode >= n then
            invalid_arg
              (Printf.sprintf "Fault.Runner.run: churn node %d outside tree"
                 c.cnode);
          Dev.at dev c.cat (fun () ->
              match c.ckind with
              | Plan.Leave -> leave c.cnode ()
              | Plan.Join ->
                Plan.count_join p;
                M.join s ~node:c.cnode))
        (Plan.spec p).churn);
    let n_requests = List.length requests in
    let issued = ref 0 and skipped = ref 0 in
    let writes = ref 0 and combines = ref 0 in
    let exact = ref 0 and partial = ref 0 in
    let lat_sum = ref 0.0 in
    List.iteri
      (fun i (q : Op.t Oat.Request.t) ->
        Dev.at dev
          (float_of_int (i + 1) *. Plan.request_spacing)
          (fun () ->
            if not (M.alive s q.node && M.attached s q.node) then incr skipped
            else begin
              incr issued;
              match q.op with
              | Oat.Request.Write v ->
                incr writes;
                M.write s ~node:q.node v
              | Oat.Request.Combine ->
                incr combines;
                let t0 = Dev.now dev in
                M.combine_tagged s ~node:q.node (fun _v ~cut ->
                    lat_sum := !lat_sum +. (Dev.now dev -. t0);
                    if cut = [] then incr exact else incr partial)
            end))
      requests;
    let events = Dev.drain dev phys ~handler:(Rel.handle rel) in
    if not (Net.is_quiescent phys) then
      failwith "Fault.Runner: physical network not quiescent after drain";
    if not (Rel.is_quiescent rel) then
      failwith "Fault.Runner: transport not quiescent after drain";
    if Simul.Frame.live pool <> 0 then
      failwith "Fault.Runner: frames leaked in flight after drain";
    M.check_invariants s;
    Rel.check_invariants rel;
    Net.check_invariants phys;
    (* The causal verdict is computed on the protocol's own history,
       before any anti-entropy: repair-admitted entries are state
       transfer (catch-up over an edge, batched per origin), not
       request history, and need not interleave causally. *)
    let logs = Array.init n (fun u -> M.log s u) in
    let violations = Consistency.Causal.check (module Op) ~n_nodes:n ~logs in
    (* Anti-entropy pass at quiescence: measure how far neighbouring
       ghost logs drifted during the run, then (if asked) reconcile
       until the active tree agrees.  Runs after the audits because it
       mutates ghost state; re-audited below when it does. *)
    let divergence_before = R.total_divergence s in
    let repair_stats = Repair.fresh_stats () in
    let divergence_after =
      if repair then begin
        ignore (R.sync ~stats:repair_stats s);
        M.check_invariants s;
        R.total_divergence s
      end
      else divergence_before
    in
    let fd, fu, fr, fy, fc =
      match plan with
      | None -> (0, 0, 0, 0, 0)
      | Some p ->
        ( Plan.drops p,
          Plan.duplicates p,
          Plan.reorders p,
          Plan.delays p,
          Plan.crashes_executed p )
    in
    let completed = !exact + !partial in
    {
      n_requests;
      issued = !issued;
      skipped = !skipped;
      writes = !writes;
      combines = !combines;
      exact = !exact;
      partial = !partial;
      lost = !combines - completed;
      logical_msgs = M.message_total s;
      physical_msgs = Net.total phys;
      retransmits = Rel.retransmits rel;
      dedup_drops = Rel.dedup_drops rel;
      stale_drops = Rel.stale_drops rel;
      teardown_drops = Rel.teardown_drops rel;
      faults_dropped = fd;
      faults_duplicated = fu;
      faults_reordered = fr;
      faults_delayed = fy;
      crashes = fc;
      leaves = (match plan with None -> 0 | Some p -> Plan.leaves_executed p);
      joins = (match plan with None -> 0 | Some p -> Plan.joins_executed p);
      events;
      makespan = Dev.now dev;
      mean_combine_latency =
        (if completed = 0 then 0.0 else !lat_sum /. float_of_int completed);
      values = Array.init n (M.local_value s);
      causal_violations = List.length violations;
      divergence_before;
      divergence_after;
      repair_stats;
    }
end
