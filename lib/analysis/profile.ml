module M = Oat.Mechanism.Make (Agg.Ops.Sum)

type t = {
  policy : string;
  combine_costs : int list;
  write_costs : int list;
}

let run tree ~policy sigma =
  let sys = M.create tree ~policy in
  let n = Tree.n_nodes tree in
  let latest = Array.make n 0.0 in
  let combine_costs = ref [] and write_costs = ref [] in
  (* One domain and no transport, so the mechanism's own network counts
     every message, in O(1); [M.message_total] sums the per-edge ledger,
     O(channels) per call. *)
  let messages () = Simul.Network.total (M.network sys) in
  List.iter
    (fun (q : float Oat.Request.t) ->
      let before = messages () in
      (match q.op with
      | Oat.Request.Write v ->
        latest.(q.node) <- v;
        M.write_sync sys ~node:q.node v;
        write_costs := (messages () - before) :: !write_costs
      | Oat.Request.Combine ->
        let got = M.combine_sync sys ~node:q.node in
        let want = Array.fold_left ( +. ) 0.0 latest in
        if Float.abs (got -. want) > 1e-6 *. Float.max 1.0 (Float.abs want) then
          failwith "Profile.run: strict consistency violated";
        combine_costs := (messages () - before) :: !combine_costs))
    sigma;
  {
    policy = M.policy_name sys;
    combine_costs = List.rev !combine_costs;
    write_costs = List.rev !write_costs;
  }

let combine_summary t = Stats.summarize (List.map float_of_int t.combine_costs)
let write_summary t = Stats.summarize (List.map float_of_int t.write_costs)

let histogram costs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    costs;
  Hashtbl.fold (fun c k acc -> (c, k) :: acc) tbl []
  |> List.sort compare
