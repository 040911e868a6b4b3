module M = Oat.Mechanism.Make (Agg.Ops.Sum)
module Astro = Astrolabe.Make (Agg.Ops.Sum)

type t = {
  name : string;
  write : node:int -> float -> unit;
  combine : node:int -> float;
  message_total : unit -> int;
}

type maker = Tree.t -> t

let of_policy policy tree =
  let sys = M.create tree ~policy in
  (* One domain and no transport, so the system's own network counts
     every frame, in O(1); [M.message_total] sums the per-edge ledger,
     O(channels) per call. *)
  let net = M.network sys in
  {
    name = M.policy_name sys;
    write = (fun ~node v -> M.write_sync sys ~node v);
    combine = (fun ~node -> M.combine_sync sys ~node);
    message_total = (fun () -> Simul.Network.total net);
  }

let rww tree = of_policy Oat.Rww.policy tree
let ab ~a ~b tree = of_policy (Oat.Ab_policy.policy ~a ~b) tree

let astrolabe tree =
  let sys = Astro.create tree in
  {
    name = Astro.name;
    write = (fun ~node v -> Astro.write sys ~node v);
    combine = (fun ~node -> Astro.combine sys ~node);
    message_total = (fun () -> Astro.message_total sys);
  }

let mds2 tree =
  { (of_policy Oat.Ab_policy.never_lease tree) with name = "mds-2" }

let all_static_and_adaptive =
  [
    ("astrolabe", astrolabe);
    ("mds-2", mds2);
    ("static ab(2,2)", ab ~a:2 ~b:2);
    ("rww", rww);
  ]

let costs algo sigma =
  let costs = Array.make (List.length sigma) 0 in
  let step i (q : float Oat.Request.t) =
    let before = algo.message_total () in
    let returned =
      match q.op with
      | Oat.Request.Write v ->
        algo.write ~node:q.node v;
        None
      | Oat.Request.Combine -> Some (algo.combine ~node:q.node)
    in
    costs.(i) <- algo.message_total () - before;
    { Oat.Request.request = q; returned }
  in
  let results = List.mapi step sigma in
  let n_nodes =
    List.fold_left (fun n (q : float Oat.Request.t) -> max n (q.node + 1)) 0 sigma
  in
  match Consistency.Strict.violations (module Agg.Ops.Sum) ~n_nodes results with
  | [] -> Array.to_list costs
  | v :: _ ->
    failwith (Format.asprintf "%s: %a" algo.name Consistency.Strict.pp_violation v)

let run algo sigma = List.fold_left ( + ) 0 (costs algo sigma)
