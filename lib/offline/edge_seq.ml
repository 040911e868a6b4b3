let project tree ~u ~v sigma =
  List.filter_map
    (fun (q : 'v Oat.Request.t) ->
      match q.op with
      | Oat.Request.Write _ ->
        if Tree.in_subtree tree u v q.node then Some Cost_model.W else None
      | Oat.Request.Combine ->
        if Tree.in_subtree tree v u q.node then Some Cost_model.R else None)
    sigma

let with_noops reqs =
  Cost_model.N :: List.concat_map (fun q -> [ q; Cost_model.N ]) reqs
