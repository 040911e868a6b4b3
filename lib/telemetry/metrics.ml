(* Named metrics registry: counters, gauges with high-water marks, and
   log-scale (power-of-two bucket) histograms.  Stdlib only; every
   operation on an already-registered metric is O(1) and allocation-free,
   so instrumentation points can sit on hot paths.  Registration itself
   (name lookup) is done once, at system-creation time. *)

type counter = { c_name : string; mutable count : int }

type gauge = { g_name : string; mutable value : int; mutable hwm : int }

let n_buckets = 63

type histogram = {
  h_name : string;
  buckets : int array; (* bucket b counts values in [2^(b-1), 2^b); b=0 counts v <= 0 *)
  mutable n : int;
  mutable sum : int;
  mutable max : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let clash what name =
  invalid_arg
    (Printf.sprintf "Metrics.%s: %S already registered with another type" what
       name)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> clash "counter" name
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.add t.tbl name (Counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> clash "gauge" name
  | None ->
    let g = { g_name = name; value = 0; hwm = 0 } in
    Hashtbl.add t.tbl name (Gauge g);
    g

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some _ -> clash "histogram" name
  | None ->
    let h =
      { h_name = name; buckets = Array.make n_buckets 0; n = 0; sum = 0; max = 0 }
    in
    Hashtbl.add t.tbl name (Histogram h);
    h

let incr c = c.count <- c.count + 1

let add c k = c.count <- c.count + k

let counter_value c = c.count

let gauge_set g v =
  g.value <- v;
  if v > g.hwm then g.hwm <- v

let gauge_add g k = gauge_set g (g.value + k)

let gauge_set_max g v = if v > g.value then gauge_set g v

let gauge_value g = g.value

let gauge_hwm g = g.hwm

(* Bucket of value [v]: 0 for v <= 0, otherwise 1 + floor(log2 v), so
   bucket b covers [2^(b-1), 2^b). *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    !b
  end

(* GC health, sampled on demand (the registry never polls by itself):
   allocation totals and collection counts as gauges, so a phase reset
   re-baselines them along with everything else. *)
let gc_sample t =
  let s = Gc.quick_stat () in
  gauge_set (gauge t "gc.minor_words") (int_of_float s.Gc.minor_words);
  gauge_set (gauge t "gc.promoted_words") (int_of_float s.Gc.promoted_words);
  gauge_set (gauge t "gc.minor_collections") s.Gc.minor_collections;
  gauge_set (gauge t "gc.major_collections") s.Gc.major_collections;
  gauge_set (gauge t "gc.heap_words") s.Gc.heap_words

let observe_n h v c =
  if c > 0 then begin
    let b = bucket_of v in
    let b = if b >= n_buckets then n_buckets - 1 else b in
    h.buckets.(b) <- h.buckets.(b) + c;
    h.n <- h.n + c;
    h.sum <- h.sum + (v * c);
    if v > h.max then h.max <- v
  end

let observe h v = observe_n h v 1

let histogram_count h = h.n

let histogram_sum h = h.sum

let histogram_max h = h.max

(* Upper-bound estimate: the inclusive upper edge of the bucket where the
   cumulative count first reaches ceil(q * n), clamped to the observed
   maximum (exact whenever the bucket containing the quantile is the one
   holding the max). *)
let quantile h q =
  if h.n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.n)) in
      if r < 1 then 1 else if r > h.n then h.n else r
    in
    let cum = ref 0 and b = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + h.buckets.(i);
         if !cum >= rank then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    let upper = if !b = 0 then 0 else (1 lsl !b) - 1 in
    if upper > h.max then h.max else upper
  end

type row =
  | Counter_row of { name : string; value : int }
  | Gauge_row of { name : string; value : int; hwm : int }
  | Histogram_row of {
      name : string;
      count : int;
      sum : int;
      max : int;
      p50 : int;
      p95 : int;
      p99 : int;
    }

let row_name = function
  | Counter_row { name; _ } | Gauge_row { name; _ } | Histogram_row { name; _ }
    ->
    name

let snapshot t =
  Hashtbl.fold
    (fun _ m acc ->
      (match m with
      | Counter c -> Counter_row { name = c.c_name; value = c.count }
      | Gauge g -> Gauge_row { name = g.g_name; value = g.value; hwm = g.hwm }
      | Histogram h ->
        Histogram_row
          {
            name = h.h_name;
            count = h.n;
            sum = h.sum;
            max = h.max;
            p50 = quantile h 0.50;
            p95 = quantile h 0.95;
            p99 = quantile h 0.99;
          })
      :: acc)
    t.tbl []
  |> List.sort (fun a b -> compare (row_name a) (row_name b))

let to_text t =
  let rows = snapshot t in
  let width =
    List.fold_left (fun w r -> max w (String.length (row_name r))) 0 rows
  in
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      let pad name = name ^ String.make (width - String.length name) ' ' in
      (match r with
      | Counter_row { name; value } ->
        Buffer.add_string b (Printf.sprintf "%s  %12d" (pad name) value)
      | Gauge_row { name; value; hwm } ->
        Buffer.add_string b
          (Printf.sprintf "%s  %12d  (hwm %d)" (pad name) value hwm)
      | Histogram_row { name; count; sum; max; p50; p95; p99 } ->
        Buffer.add_string b
          (Printf.sprintf "%s  count=%d sum=%d max=%d p50=%d p95=%d p99=%d"
             (pad name) count sum max p50 p95 p99));
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let escape_json s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let rows = snapshot t in
  let b = Buffer.create 512 in
  Buffer.add_string b "{ \"metrics\": [\n";
  List.iteri
    (fun i r ->
      (match r with
      | Counter_row { name; value } ->
        Buffer.add_string b
          (Printf.sprintf
             "  { \"name\": \"%s\", \"type\": \"counter\", \"value\": %d }"
             (escape_json name) value)
      | Gauge_row { name; value; hwm } ->
        Buffer.add_string b
          (Printf.sprintf
             "  { \"name\": \"%s\", \"type\": \"gauge\", \"value\": %d, \
              \"hwm\": %d }"
             (escape_json name) value hwm)
      | Histogram_row { name; count; sum; max; p50; p95; p99 } ->
        Buffer.add_string b
          (Printf.sprintf
             "  { \"name\": \"%s\", \"type\": \"histogram\", \"count\": %d, \
              \"sum\": %d, \"max\": %d, \"p50\": %d, \"p95\": %d, \"p99\": %d \
              }"
             (escape_json name) count sum max p50 p95 p99));
      Buffer.add_string b (if i = List.length rows - 1 then "\n" else ",\n"))
    rows;
  Buffer.add_string b "] }\n";
  Buffer.contents b

(* Exact cross-registry aggregation, used to fold per-shard registries
   into one fleet snapshot.  Counters add; gauges keep the fleet-wide
   maximum of both current value and high-water mark (per-shard gauges
   are watermarks — mailbox depth, pool occupancy — so the max is the
   honest fleet figure); histograms merge bucket-wise, which is exact:
   the merged registry is indistinguishable from a single registry fed
   the union of observations. *)
let merge_into dst src =
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter c ->
        let d = counter dst name in
        d.count <- d.count + c.count
      | Gauge g ->
        let d = gauge dst name in
        if g.value > d.value then d.value <- g.value;
        if g.hwm > d.hwm then d.hwm <- g.hwm
      | Histogram h ->
        let d = histogram dst name in
        for b = 0 to n_buckets - 1 do
          d.buckets.(b) <- d.buckets.(b) + h.buckets.(b)
        done;
        d.n <- d.n + h.n;
        d.sum <- d.sum + h.sum;
        if h.max > d.max then d.max <- h.max)
    src.tbl

let merge ts =
  let dst = create () in
  List.iter (fun src -> merge_into dst src) ts;
  dst

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.count <- 0
      | Gauge g ->
        g.value <- 0;
        g.hwm <- 0
      | Histogram h ->
        Array.fill h.buckets 0 n_buckets 0;
        h.n <- 0;
        h.sum <- 0;
        h.max <- 0)
    t.tbl
