(** Execution histories and the log constructions of Section 5.3.

    A request is globally identified by its (origin node, per-node
    index).  From the per-node ghost logs produced by the mechanism
    (Figure 6) this module builds the derived sequences of the paper's
    causal-consistency proof:

    - [gwlog]: the node's log with combines replaced by their matching
      gathers (we store the gather's [recentwrites] in the combine entry
      already, so this is a reinterpretation, not a recomputation);
    - [log'] and [gwlog']: the log extended by every other node's
      missing writes, appended in node order — the serialization
      candidates of Theorem 4. *)

type id = int * int
(** (origin node, per-node request index). *)

val entry_id : 'v Oat.Ghost.entry -> id

val extend_with_all_writes :
  'v Oat.Ghost.entry list -> all_logs:'v Oat.Ghost.entry list array -> self:int ->
  'v Oat.Ghost.entry list
(** [extend_with_all_writes log ~all_logs ~self] is the paper's
    [log'] (equivalently [gwlog'] when applied to a gwlog): for each
    node [v <> self] in increasing order, append the writes of
    [all_logs.(v)] that are not already present, preserving their
    order. *)

val own_requests : 'v Oat.Ghost.entry list -> self:int -> 'v Oat.Ghost.entry list
(** The requests of the execution history that originated at [self]:
    the paper's [pruned(A, self)] restricted to non-write requests,
    together with [self]'s own writes. *)

val write_args : 'v Oat.Ghost.entry list array -> (id, 'v) Hashtbl.t
(** Map every write identity occurring in any log to its argument. *)
