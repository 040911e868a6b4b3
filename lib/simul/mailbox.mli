(** Cross-shard frame handover for the sharded simulation engine.

    A mailbox carries frame images from one shard to another.  Frames
    themselves never cross shards — pools are shard-local and not
    thread-safe — so {!append} copies the frame's bytes into a packed
    byte region on the sending domain, and {!drain} re-materialises
    each image as a fresh frame from the {e receiving} shard's pool.

    There are two regions, one per window parity, and no lock.  In
    window [w] the sender appends to parity [w land 1] while the
    receiver drains parity [(w - 1) land 1], so the two domains never
    touch the same region within a window, and the barrier that ends
    each window gives every byte copy its happens-before edge.  A
    caller that serialises all access (one domain, or steps handed
    over under a lock) may use a single parity.  Regions are recycled,
    so a mailbox in steady state allocates nothing.

    FIFO order is preserved per region: with one mailbox per ordered
    shard pair, messages between any two nodes keep the channel-FIFO
    order the transport layer promises. *)

type t

val create : unit -> t

val append : t -> parity:int -> src:int -> dst:int -> Frame.t -> unit
(** Copy [frame]'s bytes (header included) to the end of region
    [parity] (0 or 1).  The caller keeps its reference — release it to
    the sending shard's pool as usual. *)

val drain :
  t -> parity:int -> pool:Frame.pool -> (src:int -> dst:int -> Frame.t -> unit) -> int
(** Pop every entry of region [parity] in append order; each is rebuilt
    as a frame allocated from [pool] (the receiving shard's) and passed
    to the callback, which takes ownership of the single reference.
    The other region is left as it is.  If the callback raises, the
    region's undelivered entries are discarded (the exception aborts
    the run).  Returns the number of entries delivered. *)

val length : t -> int
(** Entries pending in both regions.  A plain read: call it only when
    no domain is appending or draining. *)

val pushed : t -> int
(** Total entries ever appended (monotone; plain read, as {!length}). *)

val hwm : t -> int
(** High-water mark of a region's entry count — the deepest backlog
    the mailbox ever held, a per-edge congestion signal (plain read,
    as {!length}). *)
