(** Merkle anti-entropy over ghost-log frontiers.

    Reconciles the durable write history (ghost logs, paper Fig. 6)
    between tree neighbours after partitions, crashes and membership
    churn.  Each node's ghost state is summarised by its {e frontier} —
    the per-origin high-water mark of admitted writes
    ({!Mechanism.Make.ghost_frontier}) — and the dense-prefix invariant
    of ghost logs turns frontier agreement into state agreement: two
    logs with equal frontiers hold identical histories, and the L1
    distance between frontiers counts exactly the writes one side is
    missing.

    Reconciliation of one edge exchanges hash-tree ({!Merkle})
    summaries of the two frontiers, descends only into ranges whose
    hashes differ, and ships each divergent origin's missing suffix
    ({!Mechanism.Make.ghost_suffix} → [ghost_admit]) toward the
    endpoint that is behind — O(d log n) summary traffic for d
    divergent origins instead of O(n) full-state exchange.  A tree-wide
    {!Make.sync} sweeps every active edge until a sweep ships nothing,
    which certifies zero divergence across the active tree.

    The exchange moves state by direct access (this is a simulator),
    but [stats] accounts messages as the real protocol would: one
    summary request/response pair per hash-tree node compared, one
    range message per suffix shipped. *)

type stats = {
  mutable rounds : int;  (** full edge sweeps performed by {!Make.sync} *)
  mutable edges_synced : int;  (** edge reconciliations that shipped data *)
  mutable summary_msgs : int;  (** hash-tree summary messages exchanged *)
  mutable range_msgs : int;  (** divergent-range (suffix) messages *)
  mutable writes_shipped : int;  (** ghost writes transferred *)
}

val fresh_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

(** Hash-tree summaries of an [int array] frontier: a binary segment
    tree whose leaf [o] hashes [(o, frontier.(o))] and whose internal
    nodes hash their (ordered) children, via the SplitMix64 finaliser.
    Deterministic across runs and platforms. *)
module Merkle : sig
  type t

  val build : int array -> t
  val root : t -> int64

  val diff_origins : t -> t -> visit:(unit -> unit) -> int list
  (** Origins whose leaves differ, ascending; [visit] fires once per
      hash-tree node compared (the walk's summary-message cost: equal
      subtrees are pruned at their root).
      @raise Invalid_argument if the summaries have different sizes. *)
end

module Make (Op : Agg.Operator.S) : sig
  type mech = Oat.Mechanism.Make(Op).t
  (** Works on any mechanism instantiated at the same operator; the
      mechanism must have been created with [~ghost:true]. *)

  val divergence : mech -> a:int -> b:int -> int
  (** Writes separating the ghost logs of [a] and [b] (L1 distance
      between their frontiers); [0] iff the logs agree. *)

  val active_edges : mech -> (int * int) list
  (** Tree edges both of whose endpoints are alive and attached — the
      edges anti-entropy can traverse right now. *)

  val total_divergence : mech -> int
  (** Sum of {!divergence} over {!active_edges}; the quantity
      {!sync} drives to [0]. *)

  val sync : ?stats:stats -> mech -> int
  (** Sweep every active edge until a full sweep ships nothing (at
      most the active tree's diameter plus one sweeps); returns total
      ghost writes shipped.  Postcondition: [total_divergence m = 0]
      — every alive, attached node agrees with its neighbours on the
      durable write history. *)

  val heal : ?repair:bool -> mech -> int * int * stats
  (** The end-of-run step of [Fault.Runner] and [Fault.Churn], run
      at quiescence after their audits and their causal verdict:
      measure {!total_divergence}, then with [repair] (default false)
      {!sync}, re-audit the mechanism
      ({!Oat.Mechanism.Make.check_invariants}) and measure again.
      Returns [(divergence_before, divergence_after, stats)];
      without [repair] the two divergences are equal and [stats] is
      all zero. *)
end
