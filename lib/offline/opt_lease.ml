let inf = max_int / 2

(* DP over sigma'(u,v): best.(0) / best.(1) = cheapest cost of having
   processed the prefix with the lease finally clear / set. *)
let dp reqs =
  let best = [| 0; inf |] in
  let next = [| 0; 0 |] in
  let back = ref [] in
  List.iter
    (fun q ->
      let choice after =
        let of_before before =
          match Cost_model.cost ~before q ~after with
          | None -> inf
          | Some c ->
            let base = best.(if before then 1 else 0) in
            if base >= inf then inf else base + c
        in
        let c0 = of_before false and c1 = of_before true in
        if c0 <= c1 then (c0, false) else (c1, true)
      in
      let v0, p0 = choice false in
      let v1, p1 = choice true in
      next.(0) <- v0;
      next.(1) <- v1;
      back := (p0, p1) :: !back;
      best.(0) <- next.(0);
      best.(1) <- next.(1))
    reqs;
  (best.(0), best.(1), !back)

let per_pair_schedule sigma_uv =
  let reqs = Edge_seq.with_noops sigma_uv in
  let b0, b1, back = dp reqs in
  let final = if b0 <= b1 then false else true in
  let cost = min b0 b1 in
  (* Walk predecessors backwards to recover a schedule. *)
  let rec walk state acc = function
    | [] -> acc
    | (p0, p1) :: rest ->
      let prev = if state then p1 else p0 in
      walk prev (state :: acc) rest
  in
  (cost, walk final [] back)

let per_pair sigma_uv =
  let b0, b1, _ = dp (Edge_seq.with_noops sigma_uv) in
  min b0 b1

let per_pair_brute_force sigma_uv =
  let reqs = Edge_seq.with_noops sigma_uv in
  let rec go before = function
    | [] -> 0
    | q :: rest ->
      List.fold_left
        (fun acc after ->
          match Cost_model.cost ~before q ~after with
          | None -> acc
          | Some c -> min acc (c + go after rest))
        inf
        [ false; true ]
  in
  go false reqs

(* One projection at a time: all 2(n-1) of them at once would hold
   the workload 2(n-1) times over. *)
let total tree sigma =
  List.fold_left
    (fun acc (u, v) -> acc + per_pair (Edge_seq.project tree ~u ~v sigma))
    0 (Tree.ordered_pairs tree)
