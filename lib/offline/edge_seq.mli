(** Projection of a request sequence onto an ordered pair of neighbours.

    For a request sequence sigma and an ordered pair (u,v), the paper
    defines sigma(u,v) as the subsequence containing every write at a
    node in [subtree(u,v)] (a {!Cost_model.W}) and every combine at a
    node in [subtree(v,u)] (a {!Cost_model.R}).  This projection is the
    basis of the entire per-edge analysis (Lemmas 3.8-3.9 and the
    competitive proofs). *)

val project : Tree.t -> u:int -> v:int -> 'v Oat.Request.t list -> Cost_model.req list
(** [project tree ~u ~v sigma] = sigma(u,v) as R/W symbols. *)

val with_noops : Cost_model.req list -> Cost_model.req list
(** The paper's sigma'(u,v): a noop inserted at the beginning, at the
    end, and between every pair of successive requests, giving an
    offline algorithm the explicit option to drop the lease between
    requests. *)
