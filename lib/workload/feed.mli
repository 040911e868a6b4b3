(** Pull-based, allocation-free open-loop request generator.

    A feed is a deterministic stream of int-coded requests — op
    (write/combine), node, value — drawn per-seed from a uniform or
    Zipf key distribution, materialised one request at a time into
    mutable cursor fields instead of a closure list.  The per-request
    path performs only native-int arithmetic (a SplitMix-style mixer
    drawing 61-bit samples and an integer-scaled Zipf CDF), so driving
    a system from a
    feed allocates zero minor words in steady state; the
    [bench --gc-gate] open-loop phase pins this mechanically.

    The stream is a pure function of [(seed, parameters)]: two feeds
    created alike produce identical request sequences, on any domain,
    which is what lets every shard of the multicore engine re-derive
    the stream independently ({!shard_cursors}).

    Requests are grouped into windows of [batch] consecutive requests
    (request [i] is due at window [i / batch]) for the windowed
    multicore drivers; single-domain drivers ([Engine.run_stream]) can
    ignore windows entirely. *)

type t

val create :
  ?read_fraction:float ->
  ?skew:float ->
  ?batch:int ->
  ?value_bound:int ->
  seed:int ->
  length:int ->
  n_nodes:int ->
  unit ->
  t
(** [create ~seed ~length ~n_nodes ()] builds a feed of [length]
    requests over nodes [0..n_nodes-1].  [read_fraction] (default 0)
    is the probability a request is a combine rather than a write;
    [skew] (default 0) the Zipf exponent of the node draw (0 =
    uniform); [batch] (default 1) requests per window; values are
    uniform in [1..value_bound] (default 100).  The only allocations
    are here (the scaled CDF); {!advance} never allocates.
    @raise Invalid_argument on out-of-range parameters. *)

val advance : t -> bool
(** Step the cursor to the next request, rematerialising the
    op/node/value fields in place.  [false] when the stream is
    exhausted (the cursor keeps its last request).  Allocation-free. *)

val exhausted : t -> bool
(** No requests remain after the current one. *)

val reset : t -> unit
(** Rewind to the pristine state (before the first request); the feed
    then replays the identical stream. *)

val clone : t -> t
(** An independent cursor over the same stream, at the same position;
    the scaled CDF is shared (it is immutable).  Cheap even for
    million-node feeds. *)

(** {1 Cursor fields} (valid after a successful {!advance}) *)

val index : t -> int
(** 0-based index of the current request; -1 before the first. *)

val window : t -> int
(** [index / batch]: the window the current request is due in. *)

val is_write : t -> bool

val node : t -> int

val value : t -> int
(** In [1..value_bound]. *)

val length : t -> int

val shard_cursors :
  t ->
  shards:int ->
  shard_of:(int -> int) ->
  apply:(op:int -> node:int -> value:int -> unit) ->
  (shard:int -> window:int -> int) * (shard:int -> int)
(** [(pull, next_window)] producers for [Simul.Sharded.run_feed]: each
    shard gets a private cursor (a {!clone} rewound to the start) that
    re-derives the whole deterministic stream and initiates — via
    [apply ~op] ([0] = write, [1] = combine) — only the requests whose
    node it owns per [shard_of].  [pull ~shard ~window] consumes every
    request due at or before [window] and returns how many the shard
    initiated; [next_window ~shard] is the current request's window,
    [max_int] once exhausted.  After any [pull] round over all shards
    for the same window, every cursor rests on the same next request,
    so [next_window] agrees across shards.  [apply] runs on the
    pulling shard's domain: it must touch only that shard's state
    (e.g. a mechanism wired to [Sharded.route]). *)
