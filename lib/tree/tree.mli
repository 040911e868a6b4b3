(** Tree network topologies.

    The aggregation problem of the paper is posed over a finite set of
    nodes arranged in an (unrooted) tree [T] with reliable FIFO channels
    between neighbouring nodes.  This module provides the immutable
    topology: adjacency, the [subtree(u,v)] notion used throughout the
    paper (the component of [T - (u,v)] containing [u]), and the
    "[u]-parent" relation (the parent of [v] in [T] rooted at [u]).

    Nodes are integers [0 .. n_nodes t - 1]. *)

type t

exception Invalid_tree of string

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds a tree on [n >= 1] nodes.

    @raise Invalid_tree if the edge set is not a spanning tree of
    [{0, .., n-1}] (wrong cardinality, out-of-range endpoint, self loop,
    duplicate edge, or disconnected). *)

val n_nodes : t -> int

val nodes : t -> int list
(** All nodes, ascending. *)

val edges : t -> (int * int) list
(** Undirected edges, each reported once with smaller endpoint first. *)

val ordered_pairs : t -> (int * int) list
(** All ordered pairs of neighbouring nodes: both [(u,v)] and [(v,u)]. *)

val neighbors : t -> int -> int list
(** Neighbours of a node, ascending. *)

val neighbors_arr : t -> int -> int array
(** Neighbours of a node, ascending, as an array.  This is the tree's
    internal adjacency array, returned without copying so hot paths
    (message scheduling, broadcast loops) can iterate allocation-free:
    callers must not mutate it. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors t u f] applies [f] to each neighbour of [u] in
    ascending order, without allocating. *)

val neighbor_index : t -> int -> int -> int
(** [neighbor_index t u v] is the position of [v] in [neighbors_arr t u]
    (binary search over the sorted adjacency, O(log degree)), or [-1] if
    [v] is not a neighbour of [u]. *)

val degree : t -> int -> int

val is_leaf : t -> int -> bool

(** {1 Directed channels}

    The [2 (n-1)] directed edges are numbered once, at {!create}, and
    every per-channel table (the network's queue headers and counters,
    the reliable transport's sessions, the mechanism's per-neighbour
    slots) is indexed by this numbering.  Channel [(u, v)] has id
    [channel_base t u + i], where [i] is [v]'s position in
    [neighbors_arr t u]: a node's outgoing channels are contiguous, in
    ascending order of destination.  The index costs
    [n + 1 + 4 (n-1)] words, once per tree. *)

val n_channels : t -> int
(** Number of directed channels: the sum of the degrees, [2 (n-1)]. *)

val channel_base : t -> int -> int
(** [channel_base t u]: id of [u]'s first outgoing channel.  O(1). *)

val channel_src : t -> int -> int
(** Source node of a channel id.  O(1). *)

val channel_dst : t -> int -> int
(** Destination node of a channel id.  O(1). *)

val channel : t -> src:int -> dst:int -> int
(** Id of the directed channel [(src, dst)], or [-1] if [src] and
    [dst] are not neighbours (or [src] is out of range).
    O(log degree), allocation-free. *)

val are_neighbors : t -> int -> int -> bool

val subtree : t -> int -> int -> int list
(** [subtree t u v] is the node set of the component of [T - (u,v)] that
    contains [u] (the paper's [subtree(u,v)]).  [u] and [v] must be
    neighbours. *)

val subtree_size : t -> int -> int -> int
(** [subtree_size t u v] = [List.length (subtree t u v)], computed in
    O(|subtree|) time without materialising the node list. *)

val in_subtree : t -> int -> int -> int -> bool
(** [in_subtree t u v w] tests whether [w] is in [subtree t u v].
    Constant time after the first query for the pair. *)

val parent_towards : t -> root:int -> int -> int
(** [parent_towards t ~root v] is the [root]-parent of [v]: the parent of
    [v] in [T] rooted at [root], i.e. the first hop on the path from [v]
    to [root].  Requires [v <> root]. *)

val path : t -> int -> int -> int list
(** [path t u v] is the unique simple path from [u] to [v], inclusive of
    both endpoints. *)

val dist : t -> int -> int -> int
(** Path length in edges. *)

val bfs_order : t -> root:int -> int list
(** Nodes in breadth-first order from [root]. *)

val eccentricity : t -> int -> int

val diameter : t -> int

val pp : Format.formatter -> t -> unit

(** Standard tree topologies used by the paper's motivating systems and
    by our experiments: paths and stars are the extreme cases for
    per-edge analysis; balanced k-ary trees model SDIMS/Astrolabe-style
    aggregation hierarchies; random attachment trees model irregular
    overlays; caterpillars stress the mix of internal path and leaf
    fan-out. *)
module Build : sig
  val path : int -> t
  (** [path n]: nodes [0 - 1 - 2 - ... - n-1]. *)

  val star : int -> t
  (** [star n]: node [0] is the hub, nodes [1..n-1] are leaves. *)

  val two_nodes : unit -> t
  (** The 2-node tree used by the Theorem 3 adversary. *)

  val kary : k:int -> int -> t
  (** [kary ~k n]: complete-as-possible k-ary tree in BFS numbering;
      node [i]'s parent is [(i-1)/k]. *)

  val binary : int -> t
  (** [binary n] = [kary ~k:2 n]. *)

  val caterpillar : spine:int -> legs:int -> t
  (** [caterpillar ~spine ~legs]: a path of [spine] nodes, each carrying
      [legs] leaves. *)

  val random : Prng.Splitmix.t -> int -> t
  (** [random rng n]: uniform random attachment — node [i >= 1] connects
      to a uniformly chosen node [j < i]. *)

  val random_with_degree_bound : Prng.Splitmix.t -> max_degree:int -> int -> t
  (** Random attachment restricted to nodes whose degree is still below
      [max_degree]. *)
end

(** Subtree-ownership sharding for the multicore simulation engine.

    The tree is rooted and cut into [k] balanced contiguous ranges of
    its DFS post-order; each range is a union of whole subtrees (plus
    the boundary ancestors), so each shard owns a connected-ish clump
    and the cross-shard edge cut stays O(k·depth) on balanced
    topologies.  The partition is a pure function of (tree, root, k) —
    no randomness — so sharded runs are reproducible. *)
module Partition : sig
  type partition

  val create : ?root:int -> t -> shards:int -> partition
  (** [create tree ~shards] partitions the nodes into
      [min shards (n_nodes tree)] shards of (near-)equal node count.
      [root] (default 0) anchors the post-order.  A [shards] larger
      than the node count clamps to one node per shard (so single-node
      trees always yield [k = 1]); [shards < 1] raises
      [Invalid_argument]. *)

  val create_weighted : ?root:int -> t -> shards:int -> weights:int array -> partition
  (** [create_weighted tree ~shards ~weights] is [create] with a cost
      model: [weights.(u)] estimates the work node [u] generates
      (deliveries, typically — see {!subtree_weights} for the static
      estimate, or replay measured per-node delivery counts from a
      profile run).  The post-order sequence is cut into
      [min shards (n_nodes tree)] contiguous non-empty ranges
      minimizing the maximum range weight (exact linear partitioning:
      binary search on the bottleneck + greedy reconstruction,
      O(n log sum(weights))).  Contiguity is preserved, so the
      edge-cut shape guarantees of [create] still hold.
      @raise Invalid_argument on [shards < 1], a weights array whose
      length differs from the node count, or a negative weight. *)

  val subtree_weights : ?root:int -> t -> int array
  (** Static cost model for {!create_weighted}: [weights.(u)] is the
      size of the subtree rooted at [u] when the tree is rooted at
      [root] (default 0) — a proxy for the rootward traffic that
      passes through [u]. *)

  val loads : partition -> int array
  (** Per-shard summed node weight under the cost model the partition
      was built with (1 per node for {!create}).  Fresh copy. *)

  val balance_ratio : partition -> float
  (** Max shard load over mean shard load; 1.0 is perfectly balanced.
      1.0 when the total load is zero. *)

  val strategy : partition -> string
  (** ["naive"] for {!create}, ["weighted"] for {!create_weighted}. *)

  val k : partition -> int
  (** Number of shards actually used. *)

  val shard_of : partition -> int -> int
  (** Owning shard of a node. *)

  val owned : partition -> int -> int array
  (** Nodes owned by a shard, ascending.  Returned without copying:
      callers must not mutate. *)

  val cut_edges : partition -> (int * int) list
  (** Cross-shard edges, smaller endpoint first, sorted.  Each is
      served by exactly one mailbox per direction. *)

  val edge_cut : partition -> int
  (** [List.length (cut_edges p)]. *)

  val check : t -> partition -> unit
  (** Validate: every node owned exactly once, shard_of consistent with
      the owned lists, the cut is exactly the set of cross-shard edges.
      @raise Failure on the first violation. *)
end

(** Mutable membership view over a fixed capacity tree (churn).

    Node ids, adjacency, neighbour slot order and arena geometry never
    change — every array-backed consumer built against the capacity
    tree stays valid across membership changes.  What changes is which
    nodes are {e active}.  The invariant is the one the aggregation
    protocol needs: the active set is nonempty and induces a connected
    subtree.  In a tree that pins the legal moves exactly: only an
    active node with exactly one active neighbour (an active leaf) may
    detach — its unique active neighbour is the {e handoff point} for
    state transfer — and only an inactive node with at least one active
    capacity-neighbour may attach (several attach points cannot close a
    cycle, the capacity graph has none).  Each node's count of active
    neighbours is maintained incrementally, so eligibility queries are
    O(degree) worst case and O(1) amortized under churn. *)
module Dyn : sig
  type dyn

  val create : ?detached:int list -> t -> dyn
  (** All nodes active except [detached] (default none).
      @raise Invalid_argument if [detached] repeats or out-of-range
      nodes, or leaves the active set empty or disconnected. *)

  val tree : dyn -> t

  val can_detach : dyn -> int -> (int, string) result
  (** [Ok h] iff the node is an active leaf of the active subtree (and
      not the last active node); [h] is its handoff neighbour. *)

  val detach : dyn -> int -> int
  (** Detach an active leaf, returning the handoff neighbour.
      @raise Invalid_argument when {!can_detach} says [Error]. *)

  val can_attach : dyn -> int -> (int list, string) result
  (** [Ok points] iff the node is inactive with at least one active
      capacity-neighbour; [points] are those neighbours, ascending. *)

  val attach : dyn -> int -> int list
  (** Attach an inactive node, returning its attach points.
      @raise Invalid_argument when {!can_attach} says [Error]. *)

  val partition : ?root:int -> dyn -> shards:int -> Partition.partition
  (** Membership-aware sharding: {!Partition.create_weighted} with unit
      weight on active nodes and zero on detached ones, so shard loads
      balance over the live population.  Detached nodes still get a
      (weightless) shard assignment — they generate no traffic until
      they attach, at which point re-partitioning at a reconfiguration
      barrier rebalances them in. *)

  val check : dyn -> unit
  (** Audit counters and connectivity. @raise Failure on violation. *)
end
