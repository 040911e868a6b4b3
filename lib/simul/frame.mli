(** Pooled flat binary message frames.

    The simulator's data plane moves aggregation protocol messages as
    fixed-layout [Bytes] frames drawn from a recycling pool instead of
    heap-allocated variants: the steady-state delivery path (send →
    queue → pop → decode → release) then performs no minor allocation
    at all, which is what lets the million-node simulations of the
    roadmap be GC-quiet.

    {2 Wire layout}

    Every frame starts with an 18-byte header:

    {v
      offset 0   kind      u8   Kind.index of the protocol message
      offset 1   flags     u8   bit 0: transport-stamped (Reliable)
      offset 2   seq       i64  transport sequence / cumulative ack
      offset 10  s_inc     u32  sender incarnation   (Reliable)
      offset 14  r_inc     u32  receiver incarnation (Reliable)
      offset 18  payload        protocol-specific encoding
    v}

    Integers are little-endian and written byte by byte (no boxed
    [Int64]s), so header access is allocation-free; [seq] round-trips
    every OCaml [int] modulo 2{^63}.  The transport fields are stamped
    in place by {!Reliable} — retransmissions resend the identical
    frame with no re-encode.

    {2 Ownership}

    Frames are reference counted: {!alloc} returns a frame with count
    1, {!retain}/{!release} adjust it, and a frame whose count drops to
    0 returns to its pool's intrusive free list (count 0 ⟺ on the free
    list, which is how double-releases and use-after-free are caught).
    Whoever holds a reference may release it exactly once; queues and
    retransmission buffers hold one reference per occurrence. *)

type t
type pool

exception Frame_error of string
(** Raised on ownership-protocol violations (double release, retain of
    a freed frame) and pool-integrity failures. *)

(** {1 Pools} *)

val create_pool : ?name:string -> unit -> pool

val alloc : pool -> t
(** A frame with reference count 1, [length] = {!header_size} and a
    zeroed header.  Recycles the free list when possible; a recycled
    frame keeps its grown capacity.  A new frame's buffer is 64 bytes,
    the size of the common payload: a fault-free, ghost-free Update is
    42 bytes with an 8-byte operator and 50 with a 16-byte one, so a
    pool of such frames holds little beyond them.  Larger frames (a
    Release of more than five ids, a cut list, a ghost write log) grow
    once in {!set_length}. *)

val retain : t -> unit
(** One more owner.  @raise Frame_error if the frame is on the free
    list. *)

val release : t -> unit
(** One owner fewer; at zero the frame returns to its pool.
    @raise Frame_error on double release. *)

val rc : t -> int

val pool_of : t -> pool

val pool_name : pool -> string

val live : pool -> int
(** Frames currently allocated out of the pool.  0 at quiescence ⟺ no
    leaked in-flight frames. *)

val hwm : pool -> int
(** High-water mark of {!live}. *)

val created : pool -> int
(** Frames ever constructed (pool footprint: [created - live] are on
    the free list). *)

val check_pool : pool -> unit
(** Free-list integrity: every free frame has count 0 and belongs to
    this pool, the list is acyclic, and [created = live + free].
    @raise Frame_error on the first violation. *)

(** {1 Header} *)

val header_size : int

val kind : t -> int
val set_kind : t -> int -> unit
val seq : t -> int
val set_seq : t -> int -> unit
val s_inc : t -> int
val set_s_inc : t -> int -> unit
val r_inc : t -> int
val set_r_inc : t -> int -> unit

val stamped : t -> bool
(** Has {!Reliable} stamped the transport fields (flags bit 0)? *)

val set_stamped : t -> bool -> unit

(** {1 Payload access} *)

val length : t -> int
(** Total frame length in bytes, header included. *)

val set_length : t -> int -> unit
(** Set the frame length; grows the buffer if needed (amortized — the
    buffer never shrinks, so recycled frames stop growing). *)

val buf : t -> Bytes.t
(** The backing buffer; valid up to {!length}, invalidated by
    {!set_length} growth.  For codec use. *)

(** {1 Byte-level codec helpers}

    Allocation-free little-endian accessors shared by the payload
    codecs.  [set_int]/[get_int] round-trip every OCaml [int] modulo
    2{^63}; [u16]/[u8] check range on write. *)

val set_int : Bytes.t -> int -> int -> unit
val get_int : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_u16 : Bytes.t -> int -> int
val set_u8 : Bytes.t -> int -> int -> unit
val get_u8 : Bytes.t -> int -> int
val set_u32 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
