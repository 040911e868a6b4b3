(** Competitive-ratio measurement.

    Runs an online lease-based algorithm sequentially over a request
    sequence ({!Baselines.Algorithm.run}), counts its messages, and
    compares against the two offline yardsticks of the paper: the
    per-edge lease-based optimum (Theorem 1 promises <= 5/2 against it)
    and the nice lower bound (Theorem 2 promises <= 5). *)

type run = {
  policy : string;
  online_cost : int;  (** total messages of the online algorithm *)
  opt_lease_cost : int;  (** offline lease-based lower bound *)
  nice_cost : int;  (** nice-algorithm lower bound (epochs) *)
  n_requests : int;
  n_combines : int;
  n_writes : int;
}

val measure :
  Tree.t -> policy:Oat.Policy.factory -> float Oat.Request.t list -> run
(** Execute the sequence under the SUM operator with the given policy
    through {!Baselines.Algorithm.run} (the one sequential loop, its
    combines judged by {!Consistency.Strict}) and compute both bounds.
    Raises [Failure] on a consistency violation, which Lemma 3.12 rules
    out for lease-based policies. *)

val vs_opt_lease : run -> float
(** [online / opt_lease], or 1 if the bound is 0 (then online must be 0
    too for lease-based algorithms on nonempty runs; we report 1 when
    both are 0 and +inf when only the bound is). *)

val vs_nice : run -> float

val pp : Format.formatter -> run -> unit
