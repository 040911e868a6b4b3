module Make (Op : Agg.Operator.S) = struct
  module Frame = Simul.Frame

  type node = { value : Op.t array; aval : (int, Op.t) Hashtbl.t }
  (* value is a 1-element array to keep the record immutable-ish. *)

  type t = {
    tree : Tree.t;
    net : Simul.Network.t;
    pool : Frame.pool;
    nodes : node array;
  }

  let name = "astrolabe"

  let create tree =
    {
      tree;
      net = Simul.Network.create tree;
      pool = Frame.create_pool ~name:"astrolabe.frames" ();
      nodes =
        Array.init (Tree.n_nodes tree) (fun _ ->
            { value = [| Op.identity |]; aval = Hashtbl.create 8 });
    }

  let aval nd v =
    match Hashtbl.find_opt nd.aval v with Some x -> x | None -> Op.identity

  let subval t u w =
    let nd = t.nodes.(u) in
    List.fold_left
      (fun x v -> if v = w then x else Op.combine x (aval nd v))
      nd.value.(0) (Tree.neighbors t.tree u)

  let gval t u =
    let nd = t.nodes.(u) in
    List.fold_left
      (fun x v -> Op.combine x (aval nd v))
      nd.value.(0) (Tree.neighbors t.tree u)

  (* An Update frame carries the subtree aggregate's [Op.encode] bytes
     after the header; the frame's length bounds them. *)
  let hs = Frame.header_size

  let send_update t ~src ~dst x =
    let f = Frame.alloc t.pool in
    Frame.set_kind f (Simul.Kind.index Simul.Kind.Update);
    Frame.set_length f (hs + Op.wire_size x);
    ignore (Op.encode (Frame.buf f) hs x);
    Simul.Network.send t.net ~src ~dst f

  let push t u ~except =
    List.iter
      (fun v -> if v <> except then send_update t ~src:u ~dst:v (subval t u v))
      (Tree.neighbors t.tree u)

  let handler t ~src ~dst f =
    let x = Op.decode (Frame.buf f) hs (Frame.length f - hs) in
    Frame.release f;
    Hashtbl.replace t.nodes.(dst).aval src x;
    push t dst ~except:src

  let write t ~node x =
    t.nodes.(node).value.(0) <- x;
    push t node ~except:(-1);
    ignore (Simul.Engine.run_to_quiescence t.net ~handler:(handler t))

  let combine t ~node = gval t node

  let message_total t = Simul.Network.total t.net
end
