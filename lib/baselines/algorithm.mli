(** A uniform driver interface over every aggregation algorithm in the
    repository — lease-based policies run through the mechanism, and the
    standalone Astrolabe baseline — so experiments can sweep algorithms
    without functor plumbing.  Instances aggregate with SUM over floats
    (the concrete domain the paper fixes in Section 2). *)

type t = {
  name : string;
  write : node:int -> float -> unit;  (** executed sequentially *)
  combine : node:int -> float;  (** executed sequentially *)
  message_total : unit -> int;
  reset_counters : unit -> unit;
}

type maker = Tree.t -> t

val of_policy : Oat.Policy.factory -> maker
(** Wrap a lease policy in the mechanism. *)

val rww : maker
val ab : a:int -> b:int -> maker
val astrolabe : maker
(** Flood on write from the first write on ({!Astrolabe}).  Not the
    always-lease policy: that one floods only once its leases are set,
    and setting them costs probes. *)

val mds2 : maker
(** MDS-2, aggregate on read: the never-lease policy, named ["mds-2"].
    Writes send nothing; each combine costs 2(n-1) messages. *)

val all_static_and_adaptive : (string * maker) list
(** The line-up used by the motivation experiment (E7): astrolabe,
    mds-2, a static intermediate, and RWW. *)

val run : t -> float Oat.Request.t list -> int
(** Execute a sequence sequentially, checking every combine against the
    reference semantics (most recent write per node, summed).  Returns
    total messages.
    @raise Failure on a consistency violation. *)
