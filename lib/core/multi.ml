module Make (Op : Agg.Operator.S) = struct
  module M = Mechanism.Make (Op)

  type t = {
    tree_for : string -> Tree.t;
    instances : (string, M.t) Hashtbl.t;
    mutable order : string list;  (* reversed creation order *)
  }

  let create tree_for = { tree_for; instances = Hashtbl.create 16; order = [] }

  let declare t ?policy name =
    if Hashtbl.mem t.instances name then
      invalid_arg (Printf.sprintf "Multi.declare: attribute %S already exists" name);
    let policy = Option.value policy ~default:Rww.policy in
    Hashtbl.replace t.instances name (M.create (t.tree_for name) ~policy);
    t.order <- name :: t.order

  let attributes t = List.rev t.order

  let mem t name = Hashtbl.mem t.instances name

  let find t name =
    match Hashtbl.find_opt t.instances name with
    | Some i -> i
    | None ->
      invalid_arg (Printf.sprintf "Multi: unknown attribute %S" name)

  let write t ~attr ~node v =
    if not (Hashtbl.mem t.instances attr) then declare t attr;
    M.write_sync (find t attr) ~node v

  let combine t ~attr ~node = M.combine_sync (find t attr) ~node

  let message_total t =
    Hashtbl.fold (fun _ i acc -> acc + M.message_total i) t.instances 0

  let message_total_for t ~attr = M.message_total (find t attr)

  let messages_per_node t ~n =
    let load = Array.make n 0 in
    Hashtbl.iter
      (fun _ sys ->
        List.iter
          (fun (u, v) ->
            List.iter
              (fun k -> load.(u) <- load.(u) + M.sent sys ~src:u ~dst:v k)
              Simul.Kind.all)
          (Tree.ordered_pairs (M.tree sys)))
      t.instances;
    load

  let instance t ~attr = find t attr
end
