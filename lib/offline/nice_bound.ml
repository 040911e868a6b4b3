let epochs sigma_uv =
  let rec go prev_was_write acc = function
    | [] -> acc
    | Cost_model.W :: rest -> go true acc rest
    | Cost_model.R :: rest -> go false (if prev_was_write then acc + 1 else acc) rest
    | Cost_model.N :: rest -> go prev_was_write acc rest
  in
  go false 0 sigma_uv

let per_pair = epochs

let total tree sigma =
  List.fold_left
    (fun acc (u, v) -> acc + per_pair (Edge_seq.project tree ~u ~v sigma))
    0 (Tree.ordered_pairs tree)
