(* Frames are byte buffers with an 18-byte header (see the .mli for the
   layout) and an intrusive free list: [next] threads free frames
   through the pool, with the pool's [nil] sentinel terminating the
   list, so recycling a frame is three stores and no allocation.  The
   reference count doubles as the free/live discriminant: rc = 0 iff
   the frame is on the free list, which turns double-release and
   retain-after-free into immediate errors instead of silent frame
   sharing. *)

exception Frame_error of string

let err fmt = Format.kasprintf (fun s -> raise (Frame_error s)) fmt

type t = {
  mutable b : Bytes.t;
  mutable len : int;
  mutable rc : int;
  mutable next : t; (* free-list link; == pool.nil when last/absent *)
  pool : pool;
}

and pool = {
  mutable head : t; (* free-list head; == nil when empty *)
  nil : t; (* sentinel: never allocated, rc = -1 *)
  mutable live_n : int;
  mutable hwm_n : int;
  mutable created_n : int;
  name : string;
}

let header_size = 18
(* Sized to the common payload: a fault-free, ghost-free Update is 42
   bytes (50 with a 16-byte operator), and a larger frame grows once in
   [set_length] and keeps its buffer through the pool. *)
let initial_capacity = 64

let create_pool ?(name = "frames") () =
  let rec nil =
    { b = Bytes.empty; len = 0; rc = -1; next = nil; pool }
  and pool =
    { head = nil; nil; live_n = 0; hwm_n = 0; created_n = 0; name }
  in
  pool

let pool_of f = f.pool
let pool_name p = p.name
let live p = p.live_n
let hwm p = p.hwm_n
let created p = p.created_n
let rc f = f.rc

let alloc p =
  let f =
    if p.head == p.nil then begin
      p.created_n <- p.created_n + 1;
      { b = Bytes.make initial_capacity '\000'; len = 0; rc = 0;
        next = p.nil; pool = p }
    end
    else begin
      let f = p.head in
      p.head <- f.next;
      f.next <- p.nil;
      (* header is rewritten field by field below; stale payload bytes
         beyond [len] are never read *)
      f
    end
  in
  f.rc <- 1;
  f.len <- header_size;
  (* zero the header without touching the (possibly grown) payload *)
  Bytes.unsafe_fill f.b 0 header_size '\000';
  p.live_n <- p.live_n + 1;
  if p.live_n > p.hwm_n then p.hwm_n <- p.live_n;
  f

let retain f =
  if f.rc <= 0 then err "%s: retain of a freed frame" f.pool.name;
  f.rc <- f.rc + 1

let release f =
  if f.rc <= 0 then err "%s: double release" f.pool.name;
  f.rc <- f.rc - 1;
  if f.rc = 0 then begin
    let p = f.pool in
    f.next <- p.head;
    p.head <- f;
    p.live_n <- p.live_n - 1
  end

let check_pool p =
  let free = ref 0 in
  let f = ref p.head in
  (* the free list is at most [created] long when acyclic *)
  while !f != p.nil do
    if !free > p.created_n then err "%s: free list cycle" p.name;
    if (!f).rc <> 0 then
      err "%s: free frame with count %d" p.name (!f).rc;
    if (!f).pool != p then err "%s: foreign frame on free list" p.name;
    incr free;
    f := (!f).next
  done;
  if p.live_n < 0 then err "%s: negative live count %d" p.name p.live_n;
  if p.live_n + !free <> p.created_n then
    err "%s: %d live + %d free <> %d created" p.name p.live_n !free
      p.created_n

(* ------------------------------------------------------------------ *)
(* Byte-level accessors: manual little-endian assembly, no boxing.    *)

let set_int b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v asr 8) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v asr 16) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr ((v asr 24) land 0xff));
  Bytes.unsafe_set b (pos + 4) (Char.unsafe_chr ((v asr 32) land 0xff));
  Bytes.unsafe_set b (pos + 5) (Char.unsafe_chr ((v asr 40) land 0xff));
  Bytes.unsafe_set b (pos + 6) (Char.unsafe_chr ((v asr 48) land 0xff));
  Bytes.unsafe_set b (pos + 7) (Char.unsafe_chr ((v asr 56) land 0xff))

(* straight-line (a local helper closure would be a minor allocation
   per call under the non-flambda compiler) *)
let get_int b pos =
  Char.code (Bytes.unsafe_get b pos)
  lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (pos + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (pos + 3)) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (pos + 4)) lsl 32)
  lor (Char.code (Bytes.unsafe_get b (pos + 5)) lsl 40)
  lor (Char.code (Bytes.unsafe_get b (pos + 6)) lsl 48)
  lor (Char.code (Bytes.unsafe_get b (pos + 7)) lsl 56)

let set_u16 b pos v =
  if v < 0 || v > 0xffff then err "u16 field out of range: %d" v;
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr (v lsr 8))

let get_u16 b pos =
  Char.code (Bytes.unsafe_get b pos)
  lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 8)

let set_u8 b pos v =
  if v < 0 || v > 0xff then err "u8 field out of range: %d" v;
  Bytes.unsafe_set b pos (Char.unsafe_chr v)

let get_u8 b pos = Char.code (Bytes.unsafe_get b pos)

(* u32 for the incarnation fields (crash counts; 2^32 is plenty) *)
let set_u32 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let get_u32 b pos =
  Char.code (Bytes.unsafe_get b pos)
  lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (pos + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (pos + 3)) lsl 24)

(* ------------------------------------------------------------------ *)
(* Header fields.                                                     *)

let kind f = get_u8 f.b 0
let set_kind f k = set_u8 f.b 0 k
let seq f = get_int f.b 2
let set_seq f v = set_int f.b 2 v
let s_inc f = get_u32 f.b 10
let set_s_inc f v = set_u32 f.b 10 v
let r_inc f = get_u32 f.b 14
let set_r_inc f v = set_u32 f.b 14 v
let stamped f = get_u8 f.b 1 land 1 <> 0

let set_stamped f v =
  let fl = get_u8 f.b 1 in
  set_u8 f.b 1 (if v then fl lor 1 else fl land lnot 1)

let length f = f.len
let buf f = f.b

let set_length f n =
  let cap = Bytes.length f.b in
  if n > cap then begin
    let cap' = ref (cap * 2) in
    while n > !cap' do
      cap' := !cap' * 2
    done;
    let b = Bytes.make !cap' '\000' in
    Bytes.blit f.b 0 b 0 f.len;
    f.b <- b
  end;
  f.len <- n
