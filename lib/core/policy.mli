(** Lease policies.

    The mechanism of the paper's Figure 1 is a protocol template: the
    underlined calls ([oncombine], [probercvd], [responsercvd],
    [updatercvd], [releasercvd], [setlease], [breaklease],
    [releasepolicy]) are stubs for the {e policy} deciding when leases
    are set and broken.  A policy instance is attached to each node; its
    hooks are invoked by {!Mechanism} at exactly the points the paper's
    pseudocode invokes the stubs, and may inspect the node's lease state
    through a read-only {!view}.  Per-neighbour policy state is sized by
    the node's degree: tables are indexed by {!slot}.

    One extension over the paper: an [on_write] hook invoked on a local
    write.  RWW does not use it (the paper's stub list has no write
    hook), but the generic (a,b)-policies of Theorem 3 need to observe
    local writes to count "consecutive write requests in sigma(u,v)". *)

(** The mechanism state a policy may read, one record per system.
    Each function takes the node first: [iter_taken u f],
    [other_grantee u w], [uaw_size u v], [slot u v].  A policy reaches
    them through its {!view} and the accessors below, never directly. *)
type ops = {
  iter_taken : int -> (int -> unit) -> unit;
  other_grantee : int -> int -> bool;
  uaw_size : int -> int -> int;
  slot : int -> int -> int;
}

(** Read-only window onto the owning node's mechanism state: the node
    id and the system's shared {!ops}.  A view is three words and holds
    no closure of its own; the mechanism builds one per node at
    creation and passes it to every hook. *)
type view = { id : int; ops : ops }

val iter_taken : view -> (int -> unit) -> unit
(** [iter_taken view f] visits the paper's [tkn()] — every neighbour [v]
    with [taken\[v\]] — in ascending order.  O(degree), allocation-free;
    [tkn()] fused with its consumer's loop. *)

val other_grantee : view -> int -> bool
(** [other_grantee view w]: does a grantee other than [w] exist
    ([List.exists (fun v -> v <> w) (grntd ())])?  O(1) from the
    grantee count, plus an O(log degree) slot search when there is
    exactly one grantee. *)

val uaw_size : view -> int -> int
(** [uaw_size view v]: cardinality of [uaw\[v\]], the set of identifiers
    of updates accepted from [v] since the last reset.  O(log degree):
    a slot search, then a cached count. *)

val slot : view -> int -> int
(** [slot view v] is the position of [v] among the node's neighbours in
    ascending order, or [-1] if [v] is not a neighbour.  O(log degree):
    a binary search in the mechanism's own neighbour arena, the array
    {!iter_taken} walks, so a policy keeps no copy of the neighbour
    list.  Policies index their per-neighbour tables by it, so a node's
    policy state is O(degree) words — never sized by the largest
    neighbour id. *)

type t = {
  name : string;
  on_combine : view -> unit;
      (** [oncombine(u)] — a combine request was initiated locally. *)
  on_write : view -> unit;
      (** extension hook — a write request was executed locally. *)
  probe_rcvd : view -> from:int -> unit;  (** [probercvd(w)] in T3. *)
  response_rcvd : view -> flag:bool -> from:int -> unit;
      (** [responsercvd(flag, w)] in T4. *)
  update_rcvd : view -> from:int -> unit;  (** [updatercvd(w)] in T5. *)
  release_rcvd : view -> from:int -> unit;  (** [releasercvd(w)] in T6. *)
  set_lease : view -> target:int -> bool;
      (** [setlease(w)] — consulted in [sendresponse] when this node is
          able to grant a lease to [w]; [true] grants. *)
  break_lease : view -> target:int -> bool;
      (** [breaklease(v)] — consulted in [forwardrelease] when the taken
          lease from [v] is eligible for release; [true] releases. *)
  release_policy : view -> target:int -> unit;
      (** [releasepolicy(v)] — invoked in [onrelease] after [uaw\[v\]]
          has been trimmed, when [v] is good for release. *)
}

type factory = node_id:int -> nbrs:int list -> t
(** A policy algorithm: builds one (stateful) policy instance per node. *)

val noop : name:string -> set_lease:bool -> factory
(** Stateless policy that never reacts to events, always answers
    [set_lease] to {!set_lease} and never breaks.  [set_lease:true] is
    the "lease everywhere" extreme (Astrolabe-like once warmed up);
    [set_lease:false] never creates leases (MDS-2-like).  Holding no
    state, it builds its record once and returns it for every node. *)
