let policy ~now ~ttl ~node_id:_ ~nbrs =
  if ttl <= 0.0 then invalid_arg "Timed_policy.policy: ttl must be positive";
  (* last_read.(i) = time of the last combine/probe that read through the
     lease taken from the slot-[i] neighbour; neg_infinity = never read,
     always expired. *)
  let last_read = Array.make (List.length nbrs) Float.neg_infinity in
  (* refresh every taken lease but slot [except] (-1: none) *)
  let refresh view except =
    let t = now () in
    for i = 0 to Array.length last_read - 1 do
      if i <> except && Policy.taken view i then last_read.(i) <- t
    done
  in
  {
    Policy.name = Printf.sprintf "timed(ttl=%g)" ttl;
    on_combine = (fun view -> refresh view (-1));
    on_write = (fun _ -> ());
    probe_rcvd = (fun view ~from -> refresh view from);
    response_rcvd =
      (fun _ ~flag ~from -> if flag then last_read.(from) <- now ());
    update_rcvd = (fun _ ~from:_ -> ());
    release_rcvd = (fun _ ~from:_ -> ());
    set_lease = (fun _ ~target:_ -> true);
    break_lease = (fun _ ~target -> now () -. last_read.(target) > ttl);
    release_policy = (fun _ ~target:_ -> ());
  }
