type t = {
  policy : string;
  combine_costs : int list;
  write_costs : int list;
}

let run tree ~policy sigma =
  let algo = Baselines.Algorithm.of_policy policy tree in
  let combine_costs = ref [] and write_costs = ref [] in
  List.iter2
    (fun q cost ->
      let costs = if Oat.Request.is_combine q then combine_costs else write_costs in
      costs := cost :: !costs)
    sigma
    (Baselines.Algorithm.costs algo sigma);
  {
    policy = algo.Baselines.Algorithm.name;
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
