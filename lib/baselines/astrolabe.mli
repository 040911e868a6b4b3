(** Astrolabe-style static aggregation (paper Section 1 / Related Work).

    "In Astrolabe, on writes, the new aggregate values are propagated to
    all nodes so that the read requests at any node can be satisfied
    locally."  We reproduce exactly that propagation rule on the shared
    simulator: a write floods fresh subtree aggregates along every edge
    (n-1 update messages per write), and every combine is answered from
    the local caches for free.  This is the read-optimized extreme of
    the static-strategy spectrum.  Each update travels as a pooled
    Update frame ({!Simul.Frame}) carrying the subtree aggregate's
    [Op.encode] bytes after the header. *)

module Make (Op : Agg.Operator.S) : sig
  type t

  val create : Tree.t -> t
  val name : string

  val write : t -> node:int -> Op.t -> unit
  (** Flood the new aggregate; runs the network to quiescence. *)

  val combine : t -> node:int -> Op.t
  (** Answered locally; never sends messages. *)

  val message_total : t -> int
end
