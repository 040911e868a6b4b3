(** A uniform driver interface over every aggregation algorithm in the
    repository — lease-based policies run through the mechanism, and the
    standalone Astrolabe baseline — so experiments can sweep algorithms
    without functor plumbing.  Instances aggregate with SUM over floats
    (the concrete domain the paper fixes in Section 2).  A driver on
    virtual time ([Analysis.Latency], [oat-cli]'s instrumented runs)
    is a value of {!t} built where it is used. *)

type t = {
  name : string;
  write : node:int -> float -> unit;  (** executed sequentially *)
  combine : node:int -> float;  (** executed sequentially *)
  message_total : unit -> int;
      (** messages sent since creation; {!costs} reads it twice per
          request, so it should be O(1) *)
}

type maker = Tree.t -> t

val of_policy : Oat.Policy.factory -> maker
(** Wrap a lease policy in the mechanism, on one domain; its
    [message_total] is the system network's O(1) total. *)

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

val costs : t -> float Oat.Request.t list -> int list
(** The one sequential request loop: execute the sequence in order,
    each request after the previous one returned, and give each
    request's message cost (the change in [message_total] across it).
    Every combine is then judged once by the one sequential oracle,
    {!Consistency.Strict.violations} under SUM (the most recent write
    per node, summed, within [Agg.Ops.Sum.equal]'s tolerance).
    @raise Failure ["<name>: <violation>"] on the first violation,
    printed by {!Consistency.Strict.pp_violation}. *)

val run : t -> float Oat.Request.t list -> int
(** The sum of {!costs}: the messages the sequence cost, judged the
    same way.
    @raise Failure on a consistency violation. *)
