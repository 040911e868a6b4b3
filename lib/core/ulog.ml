module Frame = Simul.Frame

(* Record format, from offset [data] of a block:

     0x00-0x7F  one byte: id delta 1 (the next update on the channel),
                sntid delta = the byte, 0 for an update that was not
                forwarded;
     0x80 I S   any other record: the id delta I, then the sntid delta
                S, each one byte below 255, else 0xFF and the delta as
                8 bytes (little-endian) — up to 19 bytes;
     0xFF       end of the block's records: the next record starts the
                next block.

   Updates arrive in id order and a relaying node draws sntids from one
   counter, so nearly every record is one byte.  A block's last byte is
   kept for its end mark, so a decoder tells a record from the end of a
   block by its first byte alone. *)
let general = 0x80
let esc = '\255'
let endmark = 0xFF

(* A log's blocks sit in its block table in chain order, from the head
   block to the tail block, then any blocks a reset kept for reuse.  A
   position is (block index lsl [off_bits]) lor byte offset, so
   positions order like the records.  Each block starts with a 4-byte
   stamp, its owner's slot (how the audit knows no block is in two
   chains); records start at [data].  A log's first block holds the
   widest record; each block it links holds about as many bytes as the
   log has records, up to [cap], so a growing log's blocks double and a
   log that trims as it grows keeps small ones.  8k-1 bytes fill k
   words exactly. *)
let off_bits = 13
let off_mask = (1 lsl off_bits) - 1
let data = 4
let first = 31
let cap = 4095

(* Per-log ints: [stride] consecutive cells per slot. *)
let stride = 8
let k_head = 0 (* position of the head record *)
let k_tail = 1 (* position past the last record *)
let k_count = 2 (* records in [head, tail) = |uaw[v]| *)
let k_hid = 3 (* id and sntid bases of the head record: the last id *)
let k_hsnt = 4 (* and sntid before it *)
let k_id = 5 (* last id and sntid, which run on across resets *)
let k_snt = 6 (* until a clear *)
let k_mark = 7 (* watermark *)

type t = { st : int array; tables : Bytes.t array array }

let create n =
  { st = Array.make (max 1 (stride * n)) 0; tables = Array.make (max 1 n) [||] }

let count t s = t.st.((s * stride) + k_count)
let last_id t s = t.st.((s * stride) + k_id)
let last_snt t s = t.st.((s * stride) + k_snt)
let mark t s = t.st.((s * stride) + k_mark)

(* ------------------------------------------------------------------ *)
(* Coding.                                                            *)

let width d = if d < 255 then 1 else 9

let put b pos d =
  if d < 255 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr d);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos esc;
    Frame.set_int b (pos + 1) d;
    pos + 9
  end

let delta b pos =
  let d = Char.code (Bytes.unsafe_get b pos) in
  if d < 255 then d else Frame.get_int b (pos + 1)

let dwidth b pos = if Bytes.unsafe_get b pos = esc then 9 else 1

(* The record at offset [off] of block [b], whose first byte is [c]:
   its id delta, sntid delta and size. *)
let rec_did b off c = if c < general then 1 else delta b (off + 1)

let rec_ds b off c =
  if c < general then c
  else
    let q = off + 1 in
    delta b (q + dwidth b q)

let rec_width b off c =
  if c < general then 1
  else
    let q = off + 1 + dwidth b (off + 1) in
    q + dwidth b q - off

(* The first record position of the block after [p]'s. *)
let next p = (((p lsr off_bits) + 1) lsl off_bits) lor data

(* ------------------------------------------------------------------ *)
(* Growth.                                                            *)

let block s n =
  let b = Bytes.create n in
  Bytes.set_int32_le b 0 (Int32.of_int s);
  b

(* Room for one more entry past the tail block, the last of a full
   table: move the chain to the front when the blocks dropped before
   its head are at least half the table, else copy the chain into a
   table four times as large.  Only block pointers move.  Returns the
   index after the tail block, where the caller moves the tail. *)
let room t s =
  let st = t.st and o = s * stride in
  let tbl = t.tables.(s) in
  let len = Array.length tbl in
  let hb = st.(o + k_head) lsr off_bits in
  let live = len - hb in
  let dst = if 2 * live <= len then tbl else Array.make (4 * len) Bytes.empty in
  Array.blit tbl hb dst 0 live;
  if dst == tbl then Array.fill tbl live hb Bytes.empty;
  t.tables.(s) <- dst;
  st.(o + k_head) <- st.(o + k_head) - (hb lsl off_bits);
  live

(* The tail block has no room for the next record: end its records and
   return the start of the next block, linking a new one unless a reset
   kept one there.  A log's first append makes its first block. *)
let link t s =
  let st = t.st and o = s * stride in
  let tbl = t.tables.(s) in
  if Array.length tbl = 0 then begin
    t.tables.(s) <- [| block s first |];
    st.(o + k_head) <- data;
    data
  end
  else begin
    let tail = st.(o + k_tail) in
    Bytes.unsafe_set tbl.(tail lsr off_bits) (tail land off_mask)
      (Char.unsafe_chr endmark);
    let bi = (tail lsr off_bits) + 1 in
    let bi = if bi < Array.length tbl then bi else room t s in
    let tbl = t.tables.(s) in
    if Bytes.length tbl.(bi) = 0 then
      tbl.(bi) <- block s (min cap (max first st.(o + k_count) lor 7));
    (bi lsl off_bits) lor data
  end

(* ------------------------------------------------------------------ *)
(* Operations.                                                        *)

let append t s ~id ~snt =
  let st = t.st and o = s * stride in
  let last = st.(o + k_id) in
  if id <= last then
    failwith
      (Printf.sprintf
         "Ulog.append: update id %d arrived after id %d on its channel" id
         last);
  let did = id - last and ds = if snt = 0 then 0 else snt - st.(o + k_snt) in
  let w = if did = 1 && ds < general then 1 else 1 + width did + width ds in
  let tail = st.(o + k_tail) in
  let tbl = t.tables.(s) in
  let bi = tail lsr off_bits in
  let p =
    if
      bi < Array.length tbl
      && (tail land off_mask) + w < Bytes.length (Array.unsafe_get tbl bi)
    then tail
    else link t s
  in
  let b = Array.unsafe_get t.tables.(s) (p lsr off_bits)
  and off = p land off_mask in
  if w = 1 then Bytes.unsafe_set b off (Char.unsafe_chr ds)
  else begin
    Bytes.unsafe_set b off (Char.unsafe_chr general);
    ignore (put b (put b (off + 1) did) ds)
  end;
  st.(o + k_tail) <- p + w;
  st.(o + k_id) <- id;
  if snt > 0 then st.(o + k_snt) <- snt;
  st.(o + k_count) <- st.(o + k_count) + 1

let reset t s =
  let st = t.st and o = s * stride in
  let p = ((st.(o + k_head) lsr off_bits) lsl off_bits) lor data in
  st.(o + k_head) <- p;
  st.(o + k_tail) <- p;
  st.(o + k_count) <- 0;
  st.(o + k_hid) <- st.(o + k_id);
  st.(o + k_hsnt) <- st.(o + k_snt);
  st.(o + k_mark) <- st.(o + k_snt)

let clear t s =
  let o = s * stride in
  t.st.(o + k_id) <- 0;
  t.st.(o + k_snt) <- 0;
  reset t s

(* The decoders below walk from the head to the tail; at an end mark
   they go on at the next block.  They stop at the tail even from a
   position past it, which only a corrupt log reaches (the audit names
   it). *)

(* The scan from the head drops every record it passes, and every block
   it leaves; beta becomes the head and its sntid the watermark, so a
   later release whose beta is at or below it leaves [uaw] as it is. *)
let trim t s m =
  let st = t.st and o = s * stride in
  let tbl = t.tables.(s) and tail = st.(o + k_tail) in
  let p = ref st.(o + k_head)
  and id = ref st.(o + k_hid)
  and snt = ref st.(o + k_hsnt)
  and dropped = ref 0
  and beta = ref 0 in
  while !beta = 0 do
    if !p >= tail then
      failwith (Printf.sprintf "Ulog.trim: no forwarded record at or above %d" m);
    let b = tbl.(!p lsr off_bits) and off = !p land off_mask in
    let c = Char.code (Bytes.unsafe_get b off) in
    if c = endmark then p := next !p
    else begin
      let ds = rec_ds b off c in
      if ds > 0 && !snt + ds >= m then beta := !snt + ds
      else begin
        id := !id + rec_did b off c;
        snt := !snt + ds;
        p := !p + rec_width b off c;
        incr dropped
      end
    end
  done;
  for i = st.(o + k_head) lsr off_bits to (!p lsr off_bits) - 1 do
    tbl.(i) <- Bytes.empty
  done;
  st.(o + k_head) <- !p;
  st.(o + k_hid) <- !id;
  st.(o + k_hsnt) <- !snt;
  st.(o + k_count) <- st.(o + k_count) - !dropped;
  st.(o + k_mark) <- !beta

let iter t s f =
  let st = t.st and o = s * stride in
  let tbl = t.tables.(s) and tail = st.(o + k_tail) in
  let p = ref st.(o + k_head)
  and id = ref st.(o + k_hid)
  and snt = ref st.(o + k_hsnt) in
  while !p < tail do
    let b = tbl.(!p lsr off_bits) and off = !p land off_mask in
    let c = Char.code (Bytes.unsafe_get b off) in
    if c = endmark then p := next !p
    else begin
      let ds = rec_ds b off c in
      id := !id + rec_did b off c;
      snt := !snt + ds;
      p := !p + rec_width b off c;
      f !id (if ds = 0 then 0 else !snt)
    end
  done

(* Exactly [count] ids, whatever the blocks hold: the caller sized [buf]
   by the count. *)
let write_ids t s buf pos =
  let st = t.st and o = s * stride in
  let tbl = t.tables.(s) in
  let p = ref st.(o + k_head) and id = ref st.(o + k_hid) in
  for j = 0 to st.(o + k_count) - 1 do
    if
      Char.code (Bytes.unsafe_get tbl.(!p lsr off_bits) (!p land off_mask))
      = endmark
    then p := next !p;
    let b = tbl.(!p lsr off_bits) and off = !p land off_mask in
    let c = Char.code (Bytes.unsafe_get b off) in
    id := !id + rec_did b off c;
    Frame.set_int buf (pos + (8 * j)) !id;
    p := !p + rec_width b off c
  done

(* ------------------------------------------------------------------ *)
(* Audit.                                                             *)

(* [rec_width] with bounds checks: the audit reads bytes it has not yet
   shown to be records. *)
let checked_width b off =
  if Char.code (Bytes.get b off) < general then 1
  else
    let w1 = if Bytes.get b (off + 1) = esc then 9 else 1 in
    1 + w1 + if Bytes.get b (off + 1 + w1) = esc then 9 else 1

let audit t s =
  let fail fmt = Printf.ksprintf failwith fmt in
  let st = t.st and o = s * stride in
  let tbl = t.tables.(s) in
  let head = st.(o + k_head) and tail = st.(o + k_tail) in
  let hb = head lsr off_bits and tb = tail lsr off_bits in
  let n_records = st.(o + k_count) in
  if Array.length tbl = 0 then begin
    if head <> tail || n_records <> 0 then
      fail "update log has %d records and no block" n_records
  end
  else begin
    if head > tail || tb >= Array.length tbl then
      fail "update log [%#x,%#x) outside its %d-entry block table" head tail
        (Array.length tbl);
    Array.iteri
      (fun i b ->
        let len = Bytes.length b in
        if i < hb && len > 0 then
          fail "update log keeps block %d before its head" i;
        if i >= hb && i <= tb && len = 0 then
          fail "update log chain misses block %d" i;
        if len > 0 && Int32.to_int (Bytes.get_int32_le b 0) <> s then
          fail "update log block %d belongs to slot %ld" i
            (Bytes.get_int32_le b 0))
      tbl;
    let inside p =
      let off = p land off_mask in
      off >= data && off < Bytes.length tbl.(p lsr off_bits)
    in
    if not (inside head && inside tail) then
      fail "update log [%#x,%#x) leaves its blocks" head tail
  end;
  let mark = st.(o + k_mark) in
  let p = ref head and n = ref 0 in
  let id = ref st.(o + k_hid) and snt = ref st.(o + k_hsnt) in
  while !p <> tail do
    if !p > tail then fail "update log overruns its tail";
    let b = tbl.(!p lsr off_bits) and off = !p land off_mask in
    let c = Char.code (Bytes.get b off) in
    if c = endmark then p := next !p
    else begin
      let w =
        try checked_width b off with Invalid_argument _ -> Bytes.length b
      in
      if off + w >= Bytes.length b then
        fail "update log record at %#x leaves no room for its block's end" !p;
      let did = rec_did b off c and ds = rec_ds b off c in
      if did <= 0 then fail "update log ids not increasing";
      if ds < 0 then fail "update log sntids not increasing";
      if ds > 0 && !n > 0 && !snt + ds <= mark then
        fail "update log has a forwarded record at or below the watermark";
      id := !id + did;
      snt := !snt + ds;
      p := !p + w;
      incr n
    end
  done;
  if !n <> n_records then
    fail "update log holds %d records, count %d" !n n_records;
  if !id <> st.(o + k_id) || !snt <> st.(o + k_snt) then
    fail "update log ends at (%d,%d), last id/sntid (%d,%d)" !id !snt
      st.(o + k_id) st.(o + k_snt);
  if not (st.(o + k_hsnt) <= mark && mark <= st.(o + k_snt)) then
    fail "update log sntid base %d, watermark %d, last %d" st.(o + k_hsnt)
      mark st.(o + k_snt)
