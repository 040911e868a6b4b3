(* Request-lifecycle accounting: issue -> settle on a caller-supplied
   virtual-time axis (delivery ticks for the sequential engine, window
   numbers for the sharded one).  Outstanding requests sit in a circular
   FIFO of runs, one (issue time, count) pair per distinct consecutive
   issue time, so a sharded window's requests, all issued at one
   instant, take one entry; settling pops them in issue order and feeds
   two histograms of a private Metrics registry — latency and
   messages-per-request — so fleet quantiles (p50/p90/p99/max) come out
   without retaining per-request records.  A run settles as its count
   of equal observations ([Metrics.observe_n]), which leaves every
   bucket, count, sum and max as per-request settling would.
   Everything after creation is allocation-free except FIFO doubling,
   and the disabled recorder ([null]) costs one cached-bool branch. *)

type t = {
  enabled : bool;
  (* circular FIFO of runs, oldest at [head]: [count.(i)] requests
     issued at [times.(i)] *)
  mutable times : float array;
  mutable count : int array;
  mutable head : int;
  mutable runs : int;
  mutable len : int; (* outstanding requests: the runs' counts summed *)
  reg : Metrics.t; (* holds [lat] and [msgs] only *)
  lat : Metrics.histogram;
  msgs : Metrics.histogram;
  mutable issued : int;
  mutable settled : int;
}

let make ~enabled capacity =
  let reg = Metrics.create () in
  {
    enabled;
    times = Array.make capacity 0.;
    count = Array.make capacity 0;
    head = 0;
    runs = 0;
    len = 0;
    reg;
    lat = Metrics.histogram reg "latency";
    msgs = Metrics.histogram reg "msgs";
    issued = 0;
    settled = 0;
  }

let create ?(capacity = 1024) () = make ~enabled:true (max 1 capacity)

let null = make ~enabled:false 0

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
    Metrics.observe t.lat (latency_of ~issued ~settled);
    Metrics.observe t.msgs (if msgs < 0 then 0 else msgs);
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
    Metrics.observe t.lat (latency_of ~issued:t0 ~settled:time);
    Metrics.observe t.msgs (if msgs < 0 then 0 else msgs)
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
      Metrics.observe_n t.lat (latency_of ~issued:t.times.(i) ~settled:time) c;
      let more = max 0 (min c (rem - !first)) in
      Metrics.observe_n t.msgs (base + 1) more;
      Metrics.observe_n t.msgs base (c - more);
      first := !first + c
    done;
    t.head <- 0;
    t.runs <- 0;
    t.len <- 0;
    t.settled <- t.settled + n
  end

let mean h =
  let n = Metrics.histogram_count h in
  if n = 0 then 0. else float_of_int (Metrics.histogram_sum h) /. float_of_int n

let quantile t q = Metrics.quantile t.lat q

let max_latency t = Metrics.histogram_max t.lat

let mean_latency t = mean t.lat

let msgs_quantile t q = Metrics.quantile t.msgs q

let max_msgs t = Metrics.histogram_max t.msgs

let mean_msgs t = mean t.msgs

let reset t =
  t.head <- 0;
  t.runs <- 0;
  t.len <- 0;
  t.issued <- 0;
  t.settled <- 0;
  Metrics.reset t.reg

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
