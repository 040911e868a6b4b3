(** Multi-attribute aggregation (the SDIMS-style frontend).

    The aggregation frameworks the paper targets (SDIMS, Astrolabe)
    manage many named attributes, each aggregated independently — and
    SDIMS's central point, which this paper makes adaptive, is that the
    propagation aggressiveness can be chosen {e per attribute}.
    [Make (Op)] runs one {!Mechanism} instance per attribute, with a
    per-attribute lease policy (defaulting to RWW), on-demand attribute
    creation, and aggregated message accounting.

    Each attribute runs on the tree [tree_for attr].  One physical
    tree shared by every attribute is [Fun.const tree]; SDIMS's
    per-attribute DHT trees are [Dht.Plaxton.tree_for_attribute dht],
    which spreads the aggregation roots, and the load they attract,
    over the machines. *)

module Make (Op : Agg.Operator.S) : sig
  type t

  val create : (string -> Tree.t) -> t
  (** [create tree_for] — no attributes yet.  An attribute's tree is
      [tree_for attr], built once when the attribute is created. *)

  val declare : t -> ?policy:Policy.factory -> string -> unit
  (** Create an attribute explicitly, optionally with its own policy
      (default RWW).
      @raise Invalid_argument if it already exists. *)

  val attributes : t -> string list
  (** Declared attributes, in creation order. *)

  val mem : t -> string -> bool

  val write : t -> attr:string -> node:int -> Op.t -> unit
  (** Sequential write to one attribute.  Creates the attribute under
      RWW if it does not exist (SDIMS-style on-demand creation). *)

  val combine : t -> attr:string -> node:int -> Op.t
  (** Sequential combine on one attribute.
      @raise Invalid_argument on an undeclared attribute (reading an
      attribute nobody ever wrote is almost always a bug; the aggregate
      would be the bare identity). *)

  val message_total : t -> int
  (** Messages across all attributes. *)

  val message_total_for : t -> attr:string -> int
  (** @raise Invalid_argument on an undeclared attribute. *)

  val messages_per_node : t -> n:int -> int array
  (** Messages sent by each of nodes [0 .. n-1], summed over every
      attribute's tree — the load-spreading metric.  [n] must cover
      every tree's nodes; the array then sums to {!message_total}. *)

  val instance : t -> attr:string -> Mechanism.Make(Op).t
  (** Escape hatch to the underlying per-attribute system (inspection,
      concurrent drivers).
      @raise Invalid_argument on an undeclared attribute. *)
end
