(* Two packed byte regions, one per window parity.  See mailbox.mli for
   the ownership story.  Each region holds its pending entries as
   [src u32][dst u32][len u32][frame bytes] records; regions are
   recycled, so the steady state allocates nothing. *)

type buf = {
  mutable data : Bytes.t;
  mutable len : int;   (* bytes used *)
  mutable count : int; (* entries packed *)
}

type t = {
  bufs : buf array; (* indexed by parity *)
  mutable pushed : int;
  mutable hwm : int; (* deepest region ever observed *)
}

let entry_header = 12

let mk_buf () = { data = Bytes.create 4096; len = 0; count = 0 }

let create () = { bufs = [| mk_buf (); mk_buf () |]; pushed = 0; hwm = 0 }

let reserve b extra =
  let need = b.len + extra in
  if need > Bytes.length b.data then begin
    let cap = ref (Bytes.length b.data) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let data = Bytes.create !cap in
    Bytes.blit b.data 0 data 0 b.len;
    b.data <- data
  end

let append t ~parity ~src ~dst f =
  let b = t.bufs.(parity) in
  let flen = Frame.length f in
  reserve b (entry_header + flen);
  let base = b.len in
  Frame.set_u32 b.data base src;
  Frame.set_u32 b.data (base + 4) dst;
  Frame.set_u32 b.data (base + 8) flen;
  Bytes.blit (Frame.buf f) 0 b.data (base + entry_header) flen;
  b.len <- base + entry_header + flen;
  b.count <- b.count + 1;
  t.pushed <- t.pushed + 1;
  if b.count > t.hwm then t.hwm <- b.count

(* Top-level so the walk allocates nothing beyond the rebuilt frames: a
   local [let rec] would close over its arguments and cons a closure
   per drain.  It takes the region's bytes and length as arguments: the
   two regions' headers may share a cache line, and the sender appends
   to the other region while this one drains. *)
let rec drain_loop data len pos pool fn acc =
  if pos >= len then acc
  else begin
    let src = Frame.get_u32 data pos in
    let dst = Frame.get_u32 data (pos + 4) in
    let flen = Frame.get_u32 data (pos + 8) in
    let f = Frame.alloc pool in
    Frame.set_length f flen;
    Bytes.blit data (pos + entry_header) (Frame.buf f) 0 flen;
    fn ~src ~dst f;
    drain_loop data len (pos + entry_header + flen) pool fn (acc + 1)
  end

let drain t ~parity ~pool fn =
  let b = t.bufs.(parity) in
  if b.count = 0 then 0
  else begin
    let delivered =
      try drain_loop b.data b.len 0 pool fn 0
      with e ->
        (* A raising callback aborts the run; drop the remainder so the
           region is reusable if the mailbox outlives the error. *)
        b.len <- 0;
        b.count <- 0;
        raise e
    in
    b.len <- 0;
    b.count <- 0;
    delivered
  end

let length t = t.bufs.(0).count + t.bufs.(1).count
let pushed t = t.pushed
let hwm t = t.hwm
