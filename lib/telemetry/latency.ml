(* Request-lifecycle accounting: issue -> settle on a caller-supplied
   virtual-time axis (delivery ticks for the sequential engine, window
   numbers for the sharded one).  Outstanding requests sit in a circular
   FIFO of runs, one (issue time, count) pair per distinct consecutive
   issue time, so a sharded window's requests, all issued at one
   instant, take one entry; settling pops them in issue order and feeds
   two log-scale histograms — latency and messages-per-request — with
   the same power-of-two bucket convention as Metrics, so fleet
   quantiles (p50/p90/p99/max) come out without retaining per-request
   records.  A run settles as its count of equal observations, which
   leaves every bucket, count, sum and max as per-request settling
   would.  Everything after creation is allocation-free except FIFO
   doubling, and the disabled recorder ([null]) costs one cached-bool
   branch. *)

let n_buckets = 63

type hist = {
  buckets : int array; (* bucket b counts values in [2^(b-1), 2^b); b=0: v <= 0 *)
  mutable n : int;
  mutable sum : int;
  mutable max : int;
}

let hist_create () = { buckets = Array.make n_buckets 0; n = 0; sum = 0; max = 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    if !b >= n_buckets then n_buckets - 1 else !b
  end

(* [c] observations of [v]. *)
let hist_observe_n h v c =
  if c > 0 then begin
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + c;
    h.n <- h.n + c;
    h.sum <- h.sum + (v * c);
    if v > h.max then h.max <- v
  end

let hist_observe h v = hist_observe_n h v 1

(* Same upper-bound estimate as Metrics.quantile: inclusive upper edge
   of the bucket where the cumulative count reaches ceil(q * n), clamped
   to the observed maximum. *)
let hist_quantile h q =
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

let hist_reset h =
  Array.fill h.buckets 0 n_buckets 0;
  h.n <- 0;
  h.sum <- 0;
  h.max <- 0

type t = {
  enabled : bool;
  (* circular FIFO of runs, oldest at [head]: [count.(i)] requests
     issued at [times.(i)] *)
  mutable times : float array;
  mutable count : int array;
  mutable head : int;
  mutable runs : int;
  mutable len : int; (* outstanding requests: the runs' counts summed *)
  lat : hist;
  msgs : hist;
  mutable issued : int;
  mutable settled : int;
}

let create ?(capacity = 1024) () =
  let capacity = max 1 capacity in
  {
    enabled = true;
    times = Array.make capacity 0.;
    count = Array.make capacity 0;
    head = 0;
    runs = 0;
    len = 0;
    lat = hist_create ();
    msgs = hist_create ();
    issued = 0;
    settled = 0;
  }

let null =
  {
    enabled = false;
    times = [||];
    count = [||];
    head = 0;
    runs = 0;
    len = 0;
    lat = hist_create ();
    msgs = hist_create ();
    issued = 0;
    settled = 0;
  }

let enabled t = t.enabled

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. and count = Array.make (2 * cap) 0 in
  for i = 0 to t.runs - 1 do
    times.(i) <- t.times.((t.head + i) mod cap);
    count.(i) <- t.count.((t.head + i) mod cap)
  done;
  t.times <- times;
  t.count <- count;
  t.head <- 0

(* A request issued at the newest run's time joins that run. *)
let issue t time =
  if t.enabled then begin
    let cap = Array.length t.times in
    let last = (t.head + t.runs - 1) mod cap in
    if t.runs > 0 && Float.equal t.times.(last) time then
      t.count.(last) <- t.count.(last) + 1
    else begin
      if t.runs = cap then grow t;
      let cap = Array.length t.times in
      let i = (t.head + t.runs) mod cap in
      t.times.(i) <- time;
      t.count.(i) <- 1;
      t.runs <- t.runs + 1
    end;
    t.len <- t.len + 1;
    t.issued <- t.issued + 1
  end

let outstanding t = t.len

let issued t = t.issued

let settled t = t.settled

let latency_of ~issued ~settled =
  let d = settled -. issued in
  int_of_float (if d < 0. then 0. else Float.round d)

let record t ~issued ~settled ~msgs =
  if t.enabled then begin
    hist_observe t.lat (latency_of ~issued ~settled);
    hist_observe t.msgs (if msgs < 0 then 0 else msgs);
    t.issued <- t.issued + 1;
    t.settled <- t.settled + 1
  end

let settle_oldest t ~time ~msgs =
  if t.enabled && t.len > 0 then begin
    let h = t.head in
    let t0 = t.times.(h) in
    if t.count.(h) = 1 then begin
      t.head <- (h + 1) mod Array.length t.times;
      t.runs <- t.runs - 1
    end
    else t.count.(h) <- t.count.(h) - 1;
    t.len <- t.len - 1;
    t.settled <- t.settled + 1;
    hist_observe t.lat (latency_of ~issued:t0 ~settled:time);
    hist_observe t.msgs (if msgs < 0 then 0 else msgs)
  end

(* Settle every outstanding request at [time] — the quiescence rule:
   when the system drains, everything issued before the drain has
   completed.  [msgs] is the number of deliveries since the previous
   settle point, split evenly over the settling batch (the remainder
   lands on the earliest requests), which keeps the msgs histogram's
   total sum exact. *)
let settle_all t ~time ~msgs =
  if t.enabled && t.len > 0 then begin
    let n = t.len in
    let base = msgs / n and rem = msgs mod n in
    let cap = Array.length t.times in
    (* [first]: the batch position of the run's first request; the
       positions below [rem] carry one message more *)
    let first = ref 0 in
    for r = 0 to t.runs - 1 do
      let i = (t.head + r) mod cap in
      let c = t.count.(i) in
      hist_observe_n t.lat (latency_of ~issued:t.times.(i) ~settled:time) c;
      let more = max 0 (min c (rem - !first)) in
      hist_observe_n t.msgs (base + 1) more;
      hist_observe_n t.msgs base (c - more);
      first := !first + c
    done;
    t.head <- 0;
    t.runs <- 0;
    t.len <- 0;
    t.settled <- t.settled + n
  end

let quantile t q = hist_quantile t.lat q

let max_latency t = t.lat.max

let mean_latency t =
  if t.lat.n = 0 then 0. else float_of_int t.lat.sum /. float_of_int t.lat.n

let msgs_quantile t q = hist_quantile t.msgs q

let max_msgs t = t.msgs.max

let mean_msgs t =
  if t.msgs.n = 0 then 0. else float_of_int t.msgs.sum /. float_of_int t.msgs.n

let reset t =
  t.head <- 0;
  t.runs <- 0;
  t.len <- 0;
  t.issued <- 0;
  t.settled <- 0;
  hist_reset t.lat;
  hist_reset t.msgs

let to_text t =
  Printf.sprintf
    "requests  issued=%d settled=%d outstanding=%d\n\
     latency   p50=%d p90=%d p99=%d max=%d mean=%.1f\n\
     msgs/req  p50=%d p90=%d p99=%d max=%d mean=%.1f\n"
    t.issued t.settled t.len (quantile t 0.50) (quantile t 0.90)
    (quantile t 0.99) (max_latency t) (mean_latency t) (msgs_quantile t 0.50)
    (msgs_quantile t 0.90) (msgs_quantile t 0.99) (max_msgs t) (mean_msgs t)

let to_json t =
  Printf.sprintf
    "{ \"issued\": %d, \"settled\": %d, \"outstanding\": %d,\n\
    \  \"latency\": { \"p50\": %d, \"p90\": %d, \"p99\": %d, \"max\": %d, \
     \"mean\": %.3f },\n\
    \  \"msgs_per_request\": { \"p50\": %d, \"p90\": %d, \"p99\": %d, \
     \"max\": %d, \"mean\": %.3f } }\n"
    t.issued t.settled t.len (quantile t 0.50) (quantile t 0.90)
    (quantile t 0.99) (max_latency t) (mean_latency t) (msgs_quantile t 0.50)
    (msgs_quantile t 0.90) (msgs_quantile t 0.99) (max_msgs t) (mean_msgs t)
