exception Invalid_tree of string

type t = {
  n : int;
  adj : int array array;                 (* adj.(u) = sorted neighbours *)
  (* Directed-channel index: channel (u, adj.(u).(i)) has id
     chan_base.(u) + i; chan_src/chan_dst invert it. *)
  chan_base : int array;                 (* length n+1 *)
  chan_src : int array;
  chan_dst : int array;
  (* Cache: for each node u, parent of every node in T rooted at u.
     Filled lazily, one root at a time; parent_of.(u).(u) = -1. *)
  parent_of : int array option array;
}

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_tree s)) fmt

let create ~n ~edges =
  if n < 1 then invalid "tree must have at least one node, got %d" n;
  let expected = n - 1 in
  let got = List.length edges in
  if got <> expected then
    invalid "a tree on %d nodes has %d edges, got %d" n expected got;
  let adj_lists = Array.make n [] in
  let seen = Hashtbl.create (2 * n) in
  let add_edge (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid "edge (%d,%d) out of range [0,%d)" u v n;
    if u = v then invalid "self loop at node %d" u;
    let key = (min u v, max u v) in
    if Hashtbl.mem seen key then invalid "duplicate edge (%d,%d)" u v;
    Hashtbl.add seen key ();
    adj_lists.(u) <- v :: adj_lists.(u);
    adj_lists.(v) <- u :: adj_lists.(v)
  in
  List.iter add_edge edges;
  let adj = Array.map (fun l -> Array.of_list (List.sort compare l)) adj_lists in
  (* Connectivity check: n-1 edges + connected <=> tree. *)
  let visited = Array.make n false in
  let queue = Queue.create () in
  Queue.add 0 queue;
  visited.(0) <- true;
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr count;
    Array.iter
      (fun v ->
        if not visited.(v) then begin
          visited.(v) <- true;
          Queue.add v queue
        end)
      adj.(u)
  done;
  if !count <> n then invalid "graph is disconnected (%d of %d reachable)" !count n;
  let chan_base = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    chan_base.(u + 1) <- chan_base.(u) + Array.length adj.(u)
  done;
  let chan_src = Array.make chan_base.(n) 0 in
  let chan_dst = Array.make chan_base.(n) 0 in
  for u = 0 to n - 1 do
    Array.iteri
      (fun i v ->
        chan_src.(chan_base.(u) + i) <- u;
        chan_dst.(chan_base.(u) + i) <- v)
      adj.(u)
  done;
  { n; adj; chan_base; chan_src; chan_dst; parent_of = Array.make n None }

let n_nodes t = t.n

let nodes t = List.init t.n (fun i -> i)

let neighbors t u =
  if u < 0 || u >= t.n then invalid "node %d out of range" u;
  Array.to_list t.adj.(u)

let neighbors_arr t u =
  if u < 0 || u >= t.n then invalid "node %d out of range" u;
  t.adj.(u)

let iter_neighbors t u f =
  if u < 0 || u >= t.n then invalid "node %d out of range" u;
  Array.iter f t.adj.(u)

let neighbor_index t u v =
  if u < 0 || u >= t.n then invalid "node %d out of range" u;
  (* adj.(u) is sorted: binary search, no allocation. *)
  let a = t.adj.(u) in
  let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = Array.unsafe_get a mid in
    if w = v then begin
      found := mid;
      lo := !hi + 1
    end
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let degree t u =
  if u < 0 || u >= t.n then invalid "node %d out of range" u;
  Array.length t.adj.(u)

let is_leaf t u = degree t u <= 1 && t.n > 1

let n_channels t = t.chan_base.(t.n)
let channel_base t u = t.chan_base.(u)
let channel_src t c = t.chan_src.(c)
let channel_dst t c = t.chan_dst.(c)

let channel t ~src ~dst =
  if src < 0 || src >= t.n then -1
  else
    match neighbor_index t src dst with
    | -1 -> -1
    | i -> t.chan_base.(src) + i

let are_neighbors t u v = Array.exists (fun w -> w = v) t.adj.(u)

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    Array.iter (fun v -> if u < v then acc := (u, v) :: !acc) t.adj.(u)
  done;
  !acc

let ordered_pairs t =
  List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) (edges t)

(* Parents for the tree rooted at [root], computed once and cached. *)
let parents t ~root =
  if root < 0 || root >= t.n then invalid "node %d out of range" root;
  match t.parent_of.(root) with
  | Some p -> p
  | None ->
    let p = Array.make t.n (-2) in
    p.(root) <- -1;
    let queue = Queue.create () in
    Queue.add root queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun v ->
          if p.(v) = -2 then begin
            p.(v) <- u;
            Queue.add v queue
          end)
        t.adj.(u)
    done;
    t.parent_of.(root) <- Some p;
    p

let parent_towards t ~root v =
  if v = root then invalid_arg "Tree.parent_towards: v equals root";
  (parents t ~root).(v)

let in_subtree t u v w =
  if not (are_neighbors t u v) then invalid "(%d,%d) is not an edge" u v;
  (* w is on u's side of edge (u,v) iff the v-parent chain from w reaches u
     without crossing to v; equivalently the u-rooted parent of the hop
     structure: w is in subtree(u,v) iff w = u or the path w..v passes
     through u; cheapest with the v-rooted parent array: w is on u's side
     iff w <> v and walking v-parents from w we meet u before v.  Simpler:
     w is in subtree(v,u) iff the u-rooted parent chain from w crosses the
     edge (v,u), i.e. iff the first hop of path u->w ... Use: w in
     subtree(u,v) iff w's u-rooted ancestor path does not start with v. *)
  if w = u then true
  else if w = v then false
  else begin
    (* First hop on the path from u to w: follow w's parents toward u. *)
    let p = parents t ~root:u in
    let rec first_hop x = if p.(x) = u then x else first_hop p.(x) in
    first_hop w <> v
  end

let subtree t u v =
  if not (are_neighbors t u v) then invalid "(%d,%d) is not an edge" u v;
  let visited = Array.make t.n false in
  visited.(v) <- true;
  (* block crossing to v *)
  visited.(u) <- true;
  let acc = ref [ u ] in
  let queue = Queue.create () in
  Queue.add u queue;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    Array.iter
      (fun y ->
        if not visited.(y) then begin
          visited.(y) <- true;
          acc := y :: !acc;
          Queue.add y queue
        end)
      t.adj.(x)
  done;
  List.sort compare !acc

let subtree_size t u v =
  if not (are_neighbors t u v) then invalid "(%d,%d) is not an edge" u v;
  (* Trees are acyclic, so a DFS that remembers the node it came from
     needs no visited array: O(|subtree|) time and stack space, no node
     list built or sorted. *)
  let rec count node from acc =
    Array.fold_left
      (fun acc w -> if w = from then acc else count w node (acc + 1))
      acc t.adj.(node)
  in
  count u v 1

let path t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then invalid "node out of range";
  let p = parents t ~root:u in
  let rec walk acc x = if x = u then u :: acc else walk (x :: acc) p.(x) in
  walk [] v

let dist t u v = List.length (path t u v) - 1

let bfs_order t ~root =
  if root < 0 || root >= t.n then invalid "node %d out of range" root;
  let visited = Array.make t.n false in
  visited.(root) <- true;
  let queue = Queue.create () in
  Queue.add root queue;
  let acc = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    acc := u :: !acc;
    Array.iter
      (fun v ->
        if not visited.(v) then begin
          visited.(v) <- true;
          Queue.add v queue
        end)
      t.adj.(u)
  done;
  List.rev !acc

let eccentricity t u =
  let p = parents t ~root:u in
  let depth = Array.make t.n 0 in
  let m = ref 0 in
  List.iter
    (fun v ->
      if v <> u then begin
        depth.(v) <- depth.(p.(v)) + 1;
        if depth.(v) > !m then m := depth.(v)
      end)
    (bfs_order t ~root:u);
  !m

let diameter t =
  (* Double BFS: farthest node from 0, then its eccentricity. *)
  let far root =
    let p = parents t ~root in
    let depth = Array.make t.n 0 in
    let best = ref root and bestd = ref 0 in
    List.iter
      (fun v ->
        if v <> root then begin
          depth.(v) <- depth.(p.(v)) + 1;
          if depth.(v) > !bestd then begin
            bestd := depth.(v);
            best := v
          end
        end)
      (bfs_order t ~root);
    (!best, !bestd)
  in
  let a, _ = far 0 in
  snd (far a)

let pp fmt t =
  Format.fprintf fmt "@[<hov 2>tree(n=%d;@ edges=%a)@]" t.n
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
       (fun fmt (u, v) -> Format.fprintf fmt "%d-%d" u v))
    (edges t)

module Build = struct
  let path n = create ~n ~edges:(List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

  let star n =
    if n < 2 then invalid_arg "Tree.Build.star: need at least 2 nodes";
    create ~n ~edges:(List.init (n - 1) (fun i -> (0, i + 1)))

  let two_nodes () = path 2

  let kary ~k n =
    if k < 1 then invalid_arg "Tree.Build.kary: k must be >= 1";
    create ~n ~edges:(List.init (max 0 (n - 1)) (fun i -> (i + 1, i / k)))

  let binary n = kary ~k:2 n

  let caterpillar ~spine ~legs =
    if spine < 1 then invalid_arg "Tree.Build.caterpillar: spine must be >= 1";
    let n = spine * (1 + legs) in
    let spine_edges = List.init (spine - 1) (fun i -> (i, i + 1)) in
    let leg_edges =
      List.concat_map
        (fun s -> List.init legs (fun j -> (s, spine + (s * legs) + j)))
        (List.init spine (fun i -> i))
    in
    create ~n ~edges:(spine_edges @ leg_edges)

  let random rng n =
    if n < 1 then invalid_arg "Tree.Build.random: need at least 1 node";
    create ~n
      ~edges:(List.init (n - 1) (fun i -> (i + 1, Prng.Splitmix.int rng (i + 1))))

  let random_with_degree_bound rng ~max_degree n =
    if max_degree < 2 then
      invalid_arg "Tree.Build.random_with_degree_bound: max_degree >= 2";
    if n < 1 then invalid_arg "Tree.Build.random_with_degree_bound: need >= 1 node";
    let deg = Array.make n 0 in
    let edges = ref [] in
    for i = 1 to n - 1 do
      let candidates =
        List.filter (fun j -> deg.(j) < max_degree) (List.init i (fun j -> j))
      in
      let j =
        match candidates with
        | [] -> Prng.Splitmix.int rng i
        | l -> Prng.Splitmix.pick_list rng l
      in
      deg.(j) <- deg.(j) + 1;
      deg.(i) <- deg.(i) + 1;
      edges := (i, j) :: !edges
    done;
    create ~n ~edges:!edges
end

module Partition = struct
  (* Subtree-ownership sharding: the tree is rooted (default node 0)
     and nodes are emitted in iterative DFS post-order, in which every
     subtree is a contiguous run.  Cutting the post-order sequence into
     [k] balanced contiguous ranges therefore assigns each shard a
     union of whole subtrees (plus the partially-covered ancestors on
     the range boundary), which is what keeps the edge cut at
     O(k * depth) instead of O(n) for the balanced topologies the
     simulator cares about. *)

  type partition = {
    k : int;
    shard_of : int array;          (* node -> owning shard *)
    owned : int array array;       (* shard -> owned nodes, ascending *)
    cut : (int * int) list;        (* cross-shard edges, (min,max), sorted *)
    loads : int array;             (* shard -> summed node weight (1/node naive) *)
    strategy : string;             (* "naive" | "weighted" *)
  }

  let k t = t.k
  let shard_of t u = t.shard_of.(u)
  let owned t s = t.owned.(s)
  let cut_edges t = t.cut
  let edge_cut t = List.length t.cut
  let loads t = Array.copy t.loads
  let strategy t = t.strategy

  let balance_ratio t =
    let total = Array.fold_left ( + ) 0 t.loads in
    if total = 0 then 1.0
    else
      let mx = Array.fold_left max 0 t.loads in
      float_of_int mx /. (float_of_int total /. float_of_int t.k)

  (* Post-order of [tree] rooted at [root], iteratively (the million-
     node trees of the sharded benchmarks would overflow the stack on a
     recursive walk). *)
  let postorder tree ~root =
    let n = n_nodes tree in
    let order = Array.make n 0 in
    let parent = Array.make n (-1) in
    (* stack of (node, next-neighbour-index) *)
    let stack_node = Array.make n 0 and stack_idx = Array.make n 0 in
    let sp = ref 0 and out = ref 0 in
    stack_node.(0) <- root;
    stack_idx.(0) <- 0;
    sp := 1;
    while !sp > 0 do
      let u = stack_node.(!sp - 1) in
      let i = stack_idx.(!sp - 1) in
      let nbrs = neighbors_arr tree u in
      if i < Array.length nbrs then begin
        stack_idx.(!sp - 1) <- i + 1;
        let v = nbrs.(i) in
        if v <> parent.(u) then begin
          parent.(v) <- u;
          stack_node.(!sp) <- v;
          stack_idx.(!sp) <- 0;
          incr sp
        end
      end
      else begin
        decr sp;
        order.(!out) <- u;
        incr out
      end
    done;
    (order, parent)

  (* Shared tail of both constructors: derive owned lists, per-shard
     loads and the edge cut from a completed [shard_of] assignment. *)
  let finish tree ~k ~shard_of ~weights ~strategy =
    let n = n_nodes tree in
    let counts = Array.make k 0 in
    Array.iter (fun s -> counts.(s) <- counts.(s) + 1) shard_of;
    let owned = Array.map (fun c -> Array.make c 0) counts in
    let fill = Array.make k 0 in
    for u = 0 to n - 1 do
      (* ascending: u increases *)
      let s = shard_of.(u) in
      owned.(s).(fill.(s)) <- u;
      fill.(s) <- fill.(s) + 1
    done;
    let loads = Array.make k 0 in
    for u = 0 to n - 1 do
      let s = shard_of.(u) in
      loads.(s) <- loads.(s) + (match weights with None -> 1 | Some w -> w.(u))
    done;
    let cut =
      List.filter (fun (u, v) -> shard_of.(u) <> shard_of.(v)) (edges tree)
    in
    { k; shard_of; owned; cut; loads; strategy }

  let create ?(root = 0) tree ~shards =
    let n = n_nodes tree in
    if shards < 1 then invalid_arg "Tree.Partition.create: shards must be >= 1";
    if root < 0 || root >= n then
      invalid_arg "Tree.Partition.create: root out of range";
    let k = min shards n in
    let order, _parent = postorder tree ~root in
    let shard_of = Array.make n 0 in
    (* balanced contiguous ranges: the first [n mod k] shards own one
       extra node *)
    let base = n / k and rem = n mod k in
    let pos = ref 0 in
    for s = 0 to k - 1 do
      let size = base + (if s < rem then 1 else 0) in
      for _ = 1 to size do
        shard_of.(order.(!pos)) <- s;
        incr pos
      done
    done;
    (* k <= n and ranges are balanced, so every shard owns >= 1 node *)
    finish tree ~k ~shard_of ~weights:None ~strategy:"naive"

  let subtree_weights ?(root = 0) tree =
    let n = n_nodes tree in
    if root < 0 || root >= n then
      invalid_arg "Tree.Partition.subtree_weights: root out of range";
    let order, parent = postorder tree ~root in
    let size = Array.make n 1 in
    (* post-order emits children before parents, so one pass suffices *)
    Array.iter
      (fun u -> if parent.(u) >= 0 then size.(parent.(u)) <- size.(parent.(u)) + size.(u))
      order;
    size

  let create_weighted ?(root = 0) tree ~shards ~weights =
    let n = n_nodes tree in
    if shards < 1 then
      invalid_arg "Tree.Partition.create_weighted: shards must be >= 1";
    if root < 0 || root >= n then
      invalid_arg "Tree.Partition.create_weighted: root out of range";
    if Array.length weights <> n then
      invalid_arg
        (Printf.sprintf
           "Tree.Partition.create_weighted: %d weights for %d nodes"
           (Array.length weights) n);
    Array.iter
      (fun w ->
        if w < 0 then
          invalid_arg "Tree.Partition.create_weighted: negative weight")
      weights;
    let k = min shards n in
    let order, _parent = postorder tree ~root in
    let w = Array.map (fun u -> weights.(u)) order in
    let total = Array.fold_left ( + ) 0 w in
    let maxw = Array.fold_left max 0 w in
    (* Minimal L such that the post-order sequence packs into <= k
       contiguous ranges of sum <= L (classic linear-partition bound;
       greedy prefix packing is exact for the feasibility test).
       Binary search over [maxw, total]. *)
    let ranges_needed limit =
      let r = ref 1 and acc = ref 0 in
      for i = 0 to n - 1 do
        if !acc + w.(i) > limit then begin
          incr r;
          acc := w.(i)
        end
        else acc := !acc + w.(i)
      done;
      !r
    in
    let lo = ref maxw and hi = ref total in
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if ranges_needed mid <= k then hi := mid else lo := mid + 1
    done;
    let limit = !lo in
    (* Reconstruct exactly k non-empty ranges: greedy up to [limit],
       but cut early once only one node per remaining shard is left
       (so every shard owns >= 1 node), and let the final shard absorb
       the remainder (which the feasibility bound keeps <= limit). *)
    let shard_of = Array.make n 0 in
    let pos = ref 0 in
    for s = 0 to k - 1 do
      let remaining = k - s - 1 in
      let acc = ref 0 and len = ref 0 and stop = ref false in
      while not !stop do
        if !pos >= n - remaining then stop := true
        else if remaining > 0 && !len > 0 && !acc + w.(!pos) > limit then
          stop := true
        else begin
          acc := !acc + w.(!pos);
          shard_of.(order.(!pos)) <- s;
          incr pos;
          incr len
        end
      done
    done;
    finish tree ~k ~shard_of ~weights:(Some weights) ~strategy:"weighted"

  let check tree (t : partition) =
    let fail fmt = Format.kasprintf failwith ("Tree.Partition.check: " ^^ fmt) in
    let n = n_nodes tree in
    if t.k < 1 then fail "k = %d" t.k;
    if Array.length t.shard_of <> n then
      fail "shard_of covers %d of %d nodes" (Array.length t.shard_of) n;
    if Array.length t.loads <> t.k then
      fail "loads has %d entries for %d shards" (Array.length t.loads) t.k;
    let seen = Array.make n 0 in
    Array.iteri
      (fun s nodes ->
        Array.iter
          (fun u ->
            if u < 0 || u >= n then fail "shard %d owns out-of-range node %d" s u;
            if t.shard_of.(u) <> s then
              fail "node %d in shard %d's list but shard_of says %d" u s
                t.shard_of.(u);
            seen.(u) <- seen.(u) + 1)
          nodes)
      t.owned;
    Array.iteri
      (fun u c -> if c <> 1 then fail "node %d owned %d times" u c)
      seen;
    List.iter
      (fun (u, v) ->
        if not (are_neighbors tree u v) then fail "cut edge (%d,%d) not an edge" u v;
        if t.shard_of.(u) = t.shard_of.(v) then
          fail "cut edge (%d,%d) is intra-shard" u v)
      t.cut;
    let cut' =
      List.length
        (List.filter (fun (u, v) -> t.shard_of.(u) <> t.shard_of.(v)) (edges tree))
    in
    if cut' <> List.length t.cut then
      fail "cut lists %d edges, tree has %d cross-shard edges"
        (List.length t.cut) cut'
end

module Dyn = struct
  (* Mutable membership view over a fixed capacity tree.  The node set
     and adjacency never change (every array-backed consumer — slot
     arenas, partitions, transports — stays valid); what changes is
     which nodes are *active*.  The invariant maintained here is the one
     the aggregation protocol needs: the active set is nonempty and
     induces a connected subtree of the capacity tree.  In a tree that
     pins the legal moves exactly: only an active node with exactly one
     active neighbour (an active leaf) may detach, and only an inactive
     node with at least one active capacity-neighbour may attach
     (attaching to several active neighbours cannot close a cycle — the
     capacity graph has none). *)

  type dyn = {
    base : t;
    active : Bytes.t;               (* per node *)
    active_deg : int array;         (* # active neighbours, maintained *)
    mutable active_count : int;
  }

  let bget b i = Bytes.unsafe_get b i <> '\000'
  let bset b i v = Bytes.unsafe_set b i (if v then '\001' else '\000')

  let tree d = d.base

  let create ?(detached = []) base =
    let n = base.n in
    let active = Bytes.make n '\001' in
    List.iter
      (fun u ->
        if u < 0 || u >= n then
          invalid_arg (Printf.sprintf "Tree.Dyn.create: node %d out of range" u);
        if not (bget active u) then
          invalid_arg (Printf.sprintf "Tree.Dyn.create: node %d detached twice" u);
        bset active u false)
      detached;
    let active_count = n - List.length detached in
    if active_count = 0 then
      invalid_arg "Tree.Dyn.create: active set is empty";
    (* the active set must induce a connected subtree *)
    let start = ref (-1) in
    for u = n - 1 downto 0 do
      if bget active u then start := u
    done;
    let visited = Bytes.make n '\000' in
    let queue = Queue.create () in
    Queue.add !start queue;
    bset visited !start true;
    let seen = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr seen;
      Array.iter
        (fun v ->
          if bget active v && not (bget visited v) then begin
            bset visited v true;
            Queue.add v queue
          end)
        base.adj.(u)
    done;
    if !seen <> active_count then
      invalid_arg "Tree.Dyn.create: active set is disconnected";
    let active_deg = Array.make n 0 in
    for u = 0 to n - 1 do
      let k = ref 0 in
      Array.iter (fun v -> if bget active v then incr k) base.adj.(u);
      active_deg.(u) <- !k
    done;
    { base; active; active_deg; active_count }

  let can_detach d u =
    if u < 0 || u >= d.base.n then invalid "node %d out of range" u;
    if not (bget d.active u) then Error "node is not active"
    else if d.active_count < 2 then Error "cannot detach the last active node"
    else if d.active_deg.(u) <> 1 then
      Error
        (Printf.sprintf "node has %d active neighbours (need exactly 1)"
           d.active_deg.(u))
    else begin
      (* the unique active neighbour is the handoff point *)
      let h = ref (-1) in
      Array.iter (fun v -> if bget d.active v then h := v) d.base.adj.(u);
      Ok !h
    end

  let detach d u =
    match can_detach d u with
    | Error m -> invalid_arg ("Tree.Dyn.detach: " ^ m)
    | Ok h ->
      bset d.active u false;
      d.active_count <- d.active_count - 1;
      Array.iter (fun v -> d.active_deg.(v) <- d.active_deg.(v) - 1) d.base.adj.(u);
      h

  let can_attach d u =
    if u < 0 || u >= d.base.n then invalid "node %d out of range" u;
    if bget d.active u then Error "node is already active"
    else begin
      let pts = ref [] in
      Array.iter (fun v -> if bget d.active v then pts := v :: !pts) d.base.adj.(u);
      match List.rev !pts with
      | [] -> Error "no active capacity-neighbour to attach to"
      | l -> Ok l
    end

  let attach d u =
    match can_attach d u with
    | Error m -> invalid_arg ("Tree.Dyn.attach: " ^ m)
    | Ok pts ->
      bset d.active u true;
      d.active_count <- d.active_count + 1;
      Array.iter (fun v -> d.active_deg.(v) <- d.active_deg.(v) + 1) d.base.adj.(u);
      pts

  (* Membership-aware sharding: the weighted partitioner over unit
     weights on active nodes (detached nodes weigh nothing, so shard
     loads balance over the live population while contiguity — and the
     validity of every node's shard assignment — is preserved). *)
  let partition ?root d ~shards =
    let w = Array.make d.base.n 0 in
    for u = 0 to d.base.n - 1 do
      if bget d.active u then w.(u) <- 1
    done;
    Partition.create_weighted ?root d.base ~shards ~weights:w

  let check d =
    let fail fmt = Format.kasprintf failwith ("Tree.Dyn.check: " ^^ fmt) in
    let n = d.base.n in
    let count = ref 0 in
    for u = 0 to n - 1 do
      if bget d.active u then incr count;
      let k = ref 0 in
      Array.iter (fun v -> if bget d.active v then incr k) d.base.adj.(u);
      if !k <> d.active_deg.(u) then
        fail "node %d: active_deg %d <> %d" u d.active_deg.(u) !k
    done;
    if !count <> d.active_count then
      fail "active_count %d <> %d" d.active_count !count;
    if !count = 0 then fail "active set is empty";
    let start = ref (-1) in
    for u = n - 1 downto 0 do
      if bget d.active u then start := u
    done;
    let visited = Bytes.make n '\000' in
    let queue = Queue.create () in
    Queue.add !start queue;
    bset visited !start true;
    let seen = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr seen;
      Array.iter
        (fun v ->
          if bget d.active v && not (bget visited v) then begin
            bset visited v true;
            Queue.add v queue
          end)
        d.base.adj.(u)
    done;
    if !seen <> !count then
      fail "active set disconnected (%d of %d reachable)" !seen !count
end
