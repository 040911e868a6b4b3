(* Latency histogram in nanoseconds with fixed memory and O(1),
   allocation-free recording.  Buckets are log-linear: exact below 128,
   then 64 buckets per power of two, so no bucket is wider than 1/64 of
   its values.  Quantiles interpolate linearly inside the bucket, so
   they move continuously with the data instead of snapping to bucket
   edges. *)

let sub = 64
let max_exp = 40 (* 2^40 ns, about 18 minutes: larger values are clamped *)
let buckets = (2 * sub) + ((max_exp - 7 + 1) * sub)

type t = int array

let create () : t = Array.make buckets 0
let clear (h : t) = Array.fill h 0 buckets 0

let rec log2 v e = if v <= 1 then e else log2 (v lsr 1) (e + 1)

let index v =
  if v < 2 * sub then if v < 0 then 0 else v
  else
    let e = log2 v 0 in
    if e > max_exp then buckets - 1
    else (2 * sub) + ((e - 7) * sub) + ((v lsr (e - 6)) land (sub - 1))

let add (h : t) v =
  let i = index v in
  h.(i) <- h.(i) + 1

(* Lower edge and width of bucket [i]. *)
let edge i =
  if i < 2 * sub then (float_of_int i, 1.)
  else
    let e = 7 + ((i - (2 * sub)) / sub) and m = (i - (2 * sub)) mod sub in
    (float_of_int ((sub + m) lsl (e - 6)), float_of_int (1 lsl (e - 6)))

let count (h : t) = Array.fold_left ( + ) 0 h

(* Merge [src] into [dst]. *)
let merge ~(dst : t) (src : t) =
  for i = 0 to buckets - 1 do
    dst.(i) <- dst.(i) + src.(i)
  done

(* The [q]-quantile, in ns; nan when empty. *)
let quantile (h : t) q =
  let n = count h in
  if n = 0 then nan
  else begin
    let rank = q *. float_of_int n in
    let cum = ref 0 and i = ref 0 in
    while float_of_int (!cum + h.(!i)) < rank do
      cum := !cum + h.(!i);
      incr i
    done;
    let lo, width = edge !i in
    lo +. (width *. ((rank -. float_of_int !cum) /. float_of_int h.(!i)))
  end
