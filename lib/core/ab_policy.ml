let infinity_budget = max_int / 4

let name ~a ~b =
  let side x = if x >= infinity_budget then "inf" else string_of_int x in
  Printf.sprintf "ab(%s,%s)" (side a) (side b)

(* lt[v] := b for every v in tkn() other than slot [except] (-1: none). *)
let renew view lt b except =
  for i = 0 to Array.length lt - 1 do
    if i <> except && Policy.taken view i then lt.(i) <- b
  done

let policy ~a ~b ~node_id:_ ~nbrs =
  if a < 1 || b < 1 then invalid_arg "Ab_policy.policy: a and b must be >= 1";
  (* Per-neighbour tables, indexed by slot (hooks name neighbours by
     slot): the write budget of taken leases, as in RWW, and the
     consecutive combines observed per grantee. *)
  let d = List.length nbrs in
  let lt = Array.make d 0 in
  let cc = Array.make d 0 in
  {
    Policy.name = name ~a ~b;
    on_combine = (fun view -> renew view lt b (-1));
    on_write =
      (fun _ ->
        (* A local write is a write in sigma(u,v) for every neighbour v:
           it interrupts every consecutive-combine streak. *)
        Array.fill cc 0 d 0);
    probe_rcvd =
      (fun view ~from ->
        renew view lt b from;
        cc.(from) <- cc.(from) + 1);
    response_rcvd = (fun _ ~flag ~from -> if flag then lt.(from) <- b);
    update_rcvd =
      (fun view ~from ->
        if not (Policy.other_grantee view from) then lt.(from) <- lt.(from) - 1;
        (* A write on [from]'s side lies in sigma(u,v) for every other
           neighbour v: it interrupts their combine streaks. *)
        for j = 0 to d - 1 do
          if j <> from then cc.(j) <- 0
        done);
    release_rcvd = (fun _ ~from:_ -> ());
    set_lease =
      (fun _ ~target ->
        if cc.(target) >= a then begin
          cc.(target) <- 0;
          true
        end
        else false);
    break_lease = (fun _ ~target -> lt.(target) <= 0);
    release_policy =
      (fun view ~target ->
        lt.(target) <- Int.max 0 (lt.(target) - Policy.uaw_size view target));
  }

let always_lease ~node_id ~nbrs = policy ~a:1 ~b:infinity_budget ~node_id ~nbrs

let never_lease ~node_id ~nbrs =
  policy ~a:infinity_budget ~b:1 ~node_id ~nbrs
