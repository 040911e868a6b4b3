type violation = {
  position : int;
  node : int;
  expected : string;
  got : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "combine #%d at node %d returned %s, expected %s"
    v.position v.node v.got v.expected

let violations (type a) (module Op : Agg.Operator.S with type t = a) ~n_nodes
    (results : a Oat.Request.result list) =
  let latest = Array.make n_nodes None in
  let fold () =
    Array.fold_left
      (fun acc -> function Some v -> Op.combine acc v | None -> Op.combine acc Op.identity)
      Op.identity latest
  in
  (* Folded once per run of combines: only a write changes the
     operands, and their order never changes. *)
  let folded = ref (lazy (fold ())) in
  let acc = ref [] in
  List.iteri
    (fun position (r : a Oat.Request.result) ->
      match (r.request.op, r.returned) with
      | Oat.Request.Write v, _ ->
        latest.(r.request.node) <- Some v;
        folded := lazy (fold ())
      | Oat.Request.Combine, Some got ->
        let expected = Lazy.force !folded in
        if not (Op.equal got expected) then
          acc :=
            {
              position;
              node = r.request.node;
              expected = Format.asprintf "%a" Op.pp expected;
              got = Format.asprintf "%a" Op.pp got;
            }
            :: !acc
      | Oat.Request.Combine, None ->
        acc :=
          {
            position;
            node = r.request.node;
            expected = "a value";
            got = "no result";
          }
          :: !acc)
    results;
  List.rev !acc

let check op ~n_nodes results = violations op ~n_nodes results = []
