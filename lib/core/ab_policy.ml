let infinity_budget = max_int / 4

let name ~a ~b =
  let side x = if x >= infinity_budget then "inf" else string_of_int x in
  Printf.sprintf "ab(%s,%s)" (side a) (side b)

let policy ~a ~b ~node_id:_ ~nbrs =
  if a < 1 || b < 1 then invalid_arg "Ab_policy.policy: a and b must be >= 1";
  (* Per-neighbour tables, indexed by the neighbour's slot
     ([Policy.slot]): the write budget of taken leases, as in RWW, and
     the consecutive combines observed per grantee. *)
  let d = List.length nbrs in
  let lt = Array.make d 0 in
  let cc = Array.make d 0 in
  let renew view v = lt.(Policy.slot view v) <- b in
  {
    Policy.name = name ~a ~b;
    on_combine = (fun view -> Policy.iter_taken view (renew view));
    on_write =
      (fun _ ->
        (* A local write is a write in sigma(u,v) for every neighbour v:
           it interrupts every consecutive-combine streak. *)
        Array.fill cc 0 (Array.length cc) 0);
    probe_rcvd =
      (fun view ~from ->
        Policy.iter_taken view (fun v -> if v <> from then renew view v);
        let i = Policy.slot view from in
        cc.(i) <- cc.(i) + 1);
    response_rcvd = (fun view ~flag ~from -> if flag then renew view from);
    update_rcvd =
      (fun view ~from ->
        let i = Policy.slot view from in
        if not (Policy.other_grantee view from) then lt.(i) <- lt.(i) - 1;
        (* A write on [from]'s side lies in sigma(u,v) for every other
           neighbour v: it interrupts their combine streaks. *)
        for j = 0 to Array.length cc - 1 do
          if j <> i then cc.(j) <- 0
        done);
    release_rcvd = (fun _ ~from:_ -> ());
    set_lease =
      (fun view ~target ->
        let i = Policy.slot view target in
        if cc.(i) >= a then begin
          cc.(i) <- 0;
          true
        end
        else false);
    break_lease = (fun view ~target -> lt.(Policy.slot view target) <= 0);
    release_policy =
      (fun view ~target ->
        let i = Policy.slot view target in
        lt.(i) <- Int.max 0 (lt.(i) - Policy.uaw_size view target));
  }

let always_lease ~node_id ~nbrs = policy ~a:1 ~b:infinity_budget ~node_id ~nbrs

let never_lease ~node_id ~nbrs =
  policy ~a:infinity_budget ~b:1 ~node_id ~nbrs
