(** Lease policies.

    The mechanism of the paper's Figure 1 is a protocol template: the
    underlined calls ([oncombine], [probercvd], [responsercvd],
    [updatercvd], [releasercvd], [setlease], [breaklease],
    [releasepolicy]) are stubs for the {e policy} deciding when leases
    are set and broken.  A policy instance is attached to each node; its
    hooks are invoked by {!Mechanism} at exactly the points the paper's
    pseudocode invokes the stubs, and may inspect the node's lease state
    through a read-only {!view}.

    {b Slots.}  A hook names a neighbour by its {e slot}: the node's
    neighbours in ascending id order are slots [0 .. degree-1] (the
    [nbrs] list a {!factory} receives, in order).  The map between the
    paper's neighbour names and slots is one-to-one and fixed for the
    tree: where the paper writes [probercvd(w)] or [setlease(w)], the
    hook gets [~from:i] or [~target:i] with [w] the [i]-th element of
    [nbrs].  It is the tree's channel numbering (the channel from a node
    to its slot-[i] neighbour is [Tree.channel_base tree u + i]) and the
    index of every mechanism arena, so a policy keeps its per-neighbour
    state in degree-sized tables indexed by slot, and every accessor
    below is one load: no search, no closure.  Telemetry events keep
    node ids.

    One extension over the paper: an [on_write] hook invoked on a local
    write.  RWW does not use it (the paper's stub list has no write
    hook), but the generic (a,b)-policies of Theorem 3 need to observe
    local writes to count "consecutive write requests in sigma(u,v)". *)

(** The mechanism state a policy may read, one record per system.
    Each function takes the node first, then a slot: [taken u i],
    [other_grantee u i], [uaw_size u i].  A policy reaches them through
    its {!view} and the accessors below, never directly. *)
type ops = {
  taken : int -> int -> bool;
  other_grantee : int -> int -> bool;
  uaw_size : int -> int -> int;
}

(** Read-only window onto the owning node's mechanism state: the node
    id and the system's shared {!ops}.  A view is three words and holds
    no closure of its own; the mechanism builds one per node at
    creation and passes it to every hook. *)
type view = { id : int; ops : ops }

val taken : view -> int -> bool
(** [taken view i] is the paper's [taken\[v\]] for the slot-[i]
    neighbour [v].  The paper's [tkn()] is the slots [i] in
    [0 .. degree-1] where it holds, in ascending neighbour order: a
    policy walks them with a [for] loop over its own degree-sized
    table.  O(1). *)

val other_grantee : view -> int -> bool
(** [other_grantee view i]: does a grantee other than the slot-[i]
    neighbour [w] exist ([List.exists (fun v -> v <> w) (grntd ())])?
    O(1), from the grantee count and slot [i]'s grant bit. *)

val uaw_size : view -> int -> int
(** [uaw_size view i]: cardinality of [uaw\[v\]] for the slot-[i]
    neighbour [v], the set of identifiers of updates accepted from [v]
    since the last reset.  O(1): the update log's cached count. *)

type t = {
  name : string;
  on_combine : view -> unit;
      (** [oncombine(u)] — a combine request was initiated locally. *)
  on_write : view -> unit;
      (** extension hook — a write request was executed locally. *)
  probe_rcvd : view -> from:int -> unit;
      (** [probercvd(w)] in T3; [from] is [w]'s slot, as in every hook
          below. *)
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
(** A policy algorithm: builds one (stateful) policy instance per node.
    [nbrs] is the node's neighbours in ascending order: element [i] is
    slot [i]. *)

val noop : name:string -> set_lease:bool -> factory
(** Stateless policy that never reacts to events, always answers
    [set_lease] to {!set_lease} and never breaks.  [set_lease:true] is
    the "lease everywhere" extreme (Astrolabe-like once warmed up);
    [set_lease:false] never creates leases (MDS-2-like).  Holding no
    state, it builds its record once and returns it for every node. *)
