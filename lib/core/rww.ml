(* Per-node policy state: the lease timers lt[v] of invariant I4, one
   per neighbour, indexed by slot (hooks name neighbours by slot). *)

(* lt[v] := 2 for every v in tkn() other than slot [except] (-1: none). *)
let renew view lt except =
  for i = 0 to Array.length lt - 1 do
    if i <> except && Policy.taken view i then lt.(i) <- 2
  done

let policy ~node_id:_ ~nbrs =
  let lt = Array.make (List.length nbrs) 0 in
  {
    Policy.name = "rww";
    on_combine = (fun view -> renew view lt (-1));
    on_write = (fun _ -> ());
    probe_rcvd = (fun view ~from -> renew view lt from);
    response_rcvd = (fun _ ~flag ~from -> if flag then lt.(from) <- 2);
    update_rcvd =
      (fun view ~from ->
        (* Decrement only when this node is a lease-graph leaf in the
           direction away from [from] (Lemma 4.2, case T5). *)
        if not (Policy.other_grantee view from) then
          lt.(from) <- lt.(from) - 1);
    release_rcvd = (fun _ ~from:_ -> ());
    set_lease = (fun _ ~target:_ -> true);
    break_lease = (fun _ ~target -> lt.(target) <= 0);
    release_policy =
      (fun view ~target ->
        lt.(target) <- Int.max 0 (lt.(target) - Policy.uaw_size view target));
  }
