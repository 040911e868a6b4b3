(** Per-request cost profiles.

    The competitive results bound totals; for systems work the
    {e distribution} of per-request message costs matters too (tail
    costs are what operators notice).  This module replays a workload
    and records the exact message cost of every individual request,
    split by request type. *)

type t = {
  policy : string;
  combine_costs : int list;  (** per combine, in order *)
  write_costs : int list;  (** per write, in order *)
}

val run :
  Tree.t -> policy:Oat.Policy.factory -> float Oat.Request.t list -> t
(** {!Baselines.Algorithm.costs} split by request kind: the one
    sequential loop, its combines judged by {!Consistency.Strict}.
    @raise Failure on a consistency violation. *)

val combine_summary : t -> Stats.summary
val write_summary : t -> Stats.summary

val histogram : int list -> (int * int) list
(** [(cost, frequency)] pairs, ascending by cost. *)
