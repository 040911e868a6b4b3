(** Ghost execution logs (paper Section 5).

    For the causal-consistency analysis the paper augments the mechanism
    with ghost variables: each node keeps a log of requests it knows
    about, and [update]/[response] messages piggyback the sender's write
    log ([wlog]).  On receipt, the missing suffix is appended
    ([log := log . (wlog_w - log)]).  A combine is logged together with
    [recentwrites(u.log, q)] — the per-node indices of the most recent
    writes it reflects — which is exactly the matching {e gather} request
    of the paper's combine/gather compatibility construction.

    These types are polymorphic in the aggregate value so the
    consistency checkers (in [lib/consistency]) are independent of the
    operator functor. *)

type 'v write = { wnode : int; windex : int; warg : 'v }
(** A write request identified by (origin node, per-node index). *)

type 'v entry =
  | Write of 'v write
  | Combine of {
      cnode : int;
      cindex : int;
      cvalue : 'v;  (** the aggregate the combine returned *)
      crecent : (int * int) list;
          (** [recentwrites]: for every tree node [u], the pair
              [(u, index of most recent write at u in the log)], with
              index [-1] if none — the retval of the matching gather. *)
    }

val is_write : 'v entry -> bool

val wlog : 'v entry list -> 'v write list
(** The write subsequence of a log. *)
