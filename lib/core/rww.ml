(* Per-node policy state: the lease timers lt[v] of invariant I4, one
   per neighbour, indexed by the neighbour's slot ([Policy.slot]). *)
let policy ~node_id:_ ~nbrs =
  let lt = Array.make (List.length nbrs) 0 in
  let renew view v = lt.(Policy.slot view v) <- 2 in
  {
    Policy.name = "rww";
    on_combine = (fun view -> Policy.iter_taken view (renew view));
    on_write = (fun _ -> ());
    probe_rcvd =
      (fun view ~from ->
        Policy.iter_taken view (fun v -> if v <> from then renew view v));
    response_rcvd = (fun view ~flag ~from -> if flag then renew view from);
    update_rcvd =
      (fun view ~from ->
        (* Decrement only when this node is a lease-graph leaf in the
           direction away from [from] (Lemma 4.2, case T5). *)
        if not (Policy.other_grantee view from) then begin
          let i = Policy.slot view from in
          lt.(i) <- lt.(i) - 1
        end);
    release_rcvd = (fun _ ~from:_ -> ());
    set_lease = (fun _ ~target:_ -> true);
    break_lease = (fun view ~target -> lt.(Policy.slot view target) <= 0);
    release_policy =
      (fun view ~target ->
        let i = Policy.slot view target in
        lt.(i) <- Int.max 0 (lt.(i) - Policy.uaw_size view target));
  }
