(** Per-channel update logs (the paper's [uaw[v]] and [sntupdates]).

    A node keeps one log per neighbour slot.  The log of slot [s] holds
    a record per update received from that neighbour since the last
    reset: the update's id and, when T5 forwarded it, the sntid it was
    forwarded under (0 otherwise).  [uaw[v]] is the ids from the head
    on; the live [sntupdates] tuples are the forwarded records with
    sntid above the watermark {!mark}.  Ids (FIFO receipt of a monotone
    counter) and sntids (the node's [upcntr]) strictly increase along a
    log, so a record is a pair of deltas, and the common one (the next
    id, forwarded or not under a sntid less than 128 above the last)
    takes one byte.

    A log is a chain of byte blocks that grows by linking a new block,
    never by copying: live records are never moved.  A new block holds
    about as many bytes as the log has records, up to 4 KB, so a short
    log stays in one small block and a long one adds 4 KB blocks, which
    the runtime allocates in the major heap.  Nothing is allocated for
    a log before its first append.  A log's blocks are reached only
    through its own slot, so logs of nodes run by different domains
    share no mutable state. *)

type t
(** The update logs of [n] slots. *)

val create : int -> t
(** [create n]: [n] empty logs, slots [0 .. n-1].  Allocates no
    block. *)

val append : t -> int -> id:int -> snt:int -> unit
(** [append t s ~id ~snt] logs update [id], forwarded under sntid [snt]
    ([0]: not forwarded).  [snt], when nonzero, must exceed the last
    sntid.
    @raise Failure if [id] is not above the last id (a FIFO violation
    on the channel). *)

val reset : t -> int -> unit
(** The paper's [uaw[v] := {}]: empty the log and move the watermark up
    to the last sntid, which retires every [sntupdates] tuple of the
    channel.  O(1); the blocks stay with the log for its next
    records. *)

val clear : t -> int -> unit
(** {!reset}, and restart the id and sntid counters at 0 (a new
    incarnation at either end of the channel). *)

val trim : t -> int -> int -> unit
(** [trim t s m] is [onrelease]'s trim for a released minimum [m] with
    [mark t s < m <= last_snt t s]: the paper's beta is the first
    forwarded record with sntid [>= m]; the records before it leave the
    log, and beta's sntid becomes the watermark.  Blocks the trim
    passes are dropped; amortized O(1) per record. *)

val count : t -> int -> int
(** Records in the log, [|uaw[v]|]. *)

val last_id : t -> int -> int
(** The last id logged since the channel was last cleared (0: none). *)

val last_snt : t -> int -> int
(** The last nonzero sntid logged since the channel was last cleared
    (0: none). *)

val mark : t -> int -> int
(** The watermark: a forwarded record at or below it is no longer a
    live [sntupdates] tuple. *)

val iter : t -> int -> (int -> int -> unit) -> unit
(** [iter t s f] calls [f id snt] on every record from the head, [snt]
    = 0 for an update that was not forwarded. *)

val write_ids : t -> int -> Bytes.t -> int -> unit
(** [write_ids t s b pos] writes the ids of the log, from the head, as
    8-byte little-endian ints ({!Simul.Frame.set_int}) at [pos],
    [pos + 8], ...: [8 * count t s] bytes. *)

val audit : t -> int -> unit
(** Check slot [s]'s log: head and tail lie inside blocks of its chain,
    every block of the log belongs to slot [s] alone, the records from
    the head decode to {!count} and end on {!last_id} and {!last_snt},
    ids and sntids strictly increase, no forwarded record past the head
    is at or below the watermark, and head sntid base <= watermark <=
    last sntid.
    @raise Failure naming the first violation. *)
