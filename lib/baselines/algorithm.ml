module M = Oat.Mechanism.Make (Agg.Ops.Sum)
module Astro = Astrolabe.Make (Agg.Ops.Sum)

type t = {
  name : string;
  write : node:int -> float -> unit;
  combine : node:int -> float;
  message_total : unit -> int;
  reset_counters : unit -> unit;
}

type maker = Tree.t -> t

let of_policy policy tree =
  let sys = M.create tree ~policy in
  {
    name = M.policy_name sys;
    write = (fun ~node v -> M.write_sync sys ~node v);
    combine = (fun ~node -> M.combine_sync sys ~node);
    message_total = (fun () -> M.message_total sys);
    reset_counters = (fun () -> M.reset_message_counters sys);
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
    reset_counters = (fun () -> Astro.reset_message_counters sys);
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

let run algo sigma =
  let n =
    1
    + List.fold_left
        (fun acc (q : float Oat.Request.t) -> max acc q.node)
        0 sigma
  in
  let latest = Array.make n 0.0 in
  List.iter
    (fun (q : float Oat.Request.t) ->
      match q.op with
      | Oat.Request.Write v ->
        latest.(q.node) <- v;
        algo.write ~node:q.node v
      | Oat.Request.Combine ->
        let got = algo.combine ~node:q.node in
        let want = Array.fold_left ( +. ) 0.0 latest in
        if Float.abs (got -. want) > 1e-6 *. Float.max 1.0 (Float.abs want) then
          failwith
            (Printf.sprintf "%s: combine@%d returned %g, expected %g" algo.name
               q.node got want))
    sigma;
  algo.message_total ()
