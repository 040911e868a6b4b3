(* Pull-based open-loop request generator.  See feed.mli.

   Everything on the per-request path is native-int arithmetic: the
   PRNG is a SplitMix-style mixer over an unboxed [mutable int] (the
   shared [Prng.Splitmix] keeps its state in an [int64] field, which
   the non-flambda compiler boxes on every draw), and the Zipf CDF is
   pre-scaled to integers in [0, 2^61] so sampling is a 61-bit draw
   plus a binary search — no floats, no Int64, no closures.  The GC
   gate pins this path to zero minor words.

   Careful with widths: OCaml native ints are 63-bit (max_int is
   2^62 - 1), so 2^62 is not representable and bit-62 constants wrap
   to negative literals.  Draws therefore live in [0, 2^61): the
   scale 2^61 and every threshold derived from it fit a native int
   with room to spare, and [land top61] of any (possibly negative,
   wrapped) mixer output is a correct non-negative 61-bit sample. *)

let top61 = 0x1FFF_FFFF_FFFF_FFFF (* 2^61 - 1: draw mask *)
let scale61 = 0x2000_0000_0000_0000 (* 2^61: integer CDF scale *)

(* SplitMix-style mixer.  The constants are 62-bit truncations of the
   splitmix64 ones; multiplication wraps mod 2^63 in native int
   arithmetic (intermediate values may go negative — only the final
   masked draw must be non-negative), which is all a workload
   generator needs: determinism + decent diffusion, zero allocation. *)
let gamma = 0x1E37_79B9_7F4A_7C15

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58_476D_1CE4_E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D0_49BB_1331_11EB in
  z lxor (z lsr 31)

type t = {
  seed : int;
  length : int;
  n_nodes : int;
  batch : int;          (* requests per window *)
  read_threshold : int; (* draw62 < threshold => combine; 0 = writes only *)
  value_bound : int;
  cdf : int array;      (* int-scaled Zipf CDF; [||] = uniform draw *)
  mutable state : int;
  mutable idx : int;    (* index of the current request; -1 before the first *)
  mutable op : int;     (* 0 = write, 1 = combine *)
  mutable node : int;
  mutable value : int;
}

let create ?(read_fraction = 0.0) ?(skew = 0.0) ?(batch = 1)
    ?(value_bound = 100) ~seed ~length ~n_nodes () =
  if length < 0 then invalid_arg "Feed.create: negative length";
  if n_nodes < 1 then invalid_arg "Feed.create: n_nodes must be >= 1";
  if batch < 1 then invalid_arg "Feed.create: batch must be >= 1";
  if value_bound < 1 then invalid_arg "Feed.create: value_bound must be >= 1";
  if read_fraction < 0.0 || read_fraction > 1.0 then
    invalid_arg "Feed.create: read_fraction outside [0,1]";
  if skew < 0.0 then invalid_arg "Feed.create: negative skew";
  let cdf =
    if skew = 0.0 then [||]
    else begin
      let z = Zipf.create ~n:n_nodes ~s:skew in
      Array.init n_nodes (fun i ->
          let c = Zipf.cumulative z i in
          if c >= 1.0 then scale61 else int_of_float (c *. float_of_int scale61))
    end
  in
  {
    seed;
    length;
    n_nodes;
    batch;
    read_threshold =
      int_of_float (read_fraction *. float_of_int scale61);
    value_bound;
    cdf;
    state = seed;
    idx = -1;
    op = 0;
    node = 0;
    value = 0;
  }

let clone t = { t with state = t.state } (* cdf shared: it is immutable *)

let reset t =
  t.state <- t.seed;
  t.idx <- -1;
  t.op <- 0;
  t.node <- 0;
  t.value <- 0

(* 61-bit non-negative draw. *)
let draw61 t =
  t.state <- t.state + gamma;
  mix t.state land top61

(* Uniform draw in [0, bound), rejection-sampled so it is exact. *)
let rec draw_bounded t bound =
  let r = draw61 t in
  let v = r mod bound in
  (* reject the final partial block *)
  if r - v > top61 - bound + 1 then draw_bounded t bound else v

(* First rank whose scaled CDF exceeds the draw. *)
let zipf_rank (cdf : int array) (u : int) : int =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let advance t =
  if t.idx + 1 >= t.length then false
  else begin
    t.idx <- t.idx + 1;
    t.op <-
      (if t.read_threshold > 0 && draw61 t < t.read_threshold then 1 else 0);
    t.node <-
      (if Array.length t.cdf = 0 then draw_bounded t t.n_nodes
       else zipf_rank t.cdf (draw61 t));
    t.value <- 1 + draw_bounded t t.value_bound;
    true
  end

let length t = t.length
let index t = t.idx
let window t = if t.idx < 0 then 0 else t.idx / t.batch
let exhausted t = t.idx + 1 >= t.length
let is_write t = t.op = 0
let node t = t.node
let value t = t.value

let shard_cursors t ~shards ~shard_of ~apply =
  if shards < 1 then invalid_arg "Feed.shard_cursors: shards must be >= 1";
  (* Each shard re-derives the full deterministic stream from its own
     cursor and initiates only the requests it owns: no cross-domain
     coordination, no materialised request list.  [primed.(s)] is true
     while cursor [s] holds a not-yet-consumed request. *)
  let cursors =
    Array.init shards (fun _ ->
        let c = clone t in
        reset c;
        c)
  in
  let primed = Array.map (fun c -> advance c) cursors in
  let pull ~shard ~window:w =
    let c = cursors.(shard) in
    let n = ref 0 in
    while primed.(shard) && window c <= w do
      if shard_of c.node = shard then begin
        apply ~op:c.op ~node:c.node ~value:c.value;
        incr n
      end;
      primed.(shard) <- advance c
    done;
    !n
  in
  let next_window ~shard =
    if primed.(shard) then window cursors.(shard) else max_int
  in
  (pull, next_window)
