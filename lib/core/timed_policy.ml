let policy ~now ~ttl ~node_id:_ ~nbrs =
  if ttl <= 0.0 then invalid_arg "Timed_policy.policy: ttl must be positive";
  (* last_read.(Policy.slot view v) = time of the last combine/probe
     that read through the lease taken from v; neg_infinity = never
     read, always expired. *)
  let last_read = Array.make (List.length nbrs) Float.neg_infinity in
  let refresh view v = last_read.(Policy.slot view v) <- now () in
  let expired view v = now () -. last_read.(Policy.slot view v) > ttl in
  {
    Policy.name = Printf.sprintf "timed(ttl=%g)" ttl;
    on_combine = (fun view -> Policy.iter_taken view (refresh view));
    on_write = (fun _ -> ());
    probe_rcvd =
      (fun view ~from ->
        Policy.iter_taken view (fun v -> if v <> from then refresh view v));
    response_rcvd = (fun view ~flag ~from -> if flag then refresh view from);
    update_rcvd = (fun _ ~from:_ -> ());
    release_rcvd = (fun _ ~from:_ -> ());
    set_lease = (fun _ ~target:_ -> true);
    break_lease = (fun view ~target -> expired view target);
    release_policy = (fun _ ~target:_ -> ());
  }
