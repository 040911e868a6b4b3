(* In-memory span tracer for the traced rounds.

   Spans are opened and closed around the benchmark's calls into each
   layer, on the domain that makes the call.  Each domain keeps a stack
   of open spans, so a span's self time is its duration minus the time
   of the spans nested in it (a [route] inside a [handler], a [handler]
   inside a [deliver]).  Per-layer totals of self time and span counts
   give the per-layer metrics.  The most recent spans are also kept in
   a ring, each with the id of the request (single domain) or window
   (sharded) it belongs to, for the one-request breakdown printed at
   the end.  Nothing here allocates after [create]; each domain's
   counters live in one block, so two domains never write the same
   cache line. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let feed = 0 (* Workload.Feed.advance; sharded: pull minus its initiations *)
let initiate = 1 (* Mechanism.write / Mechanism.combine *)
let handler = 2 (* Mechanism.handler *)
let route = 3 (* Sharded.route *)
let deliver = 4 (* Network.deliver_any *)
let layers = 5
let name = [| "feed"; "initiate"; "handler"; "route"; "deliver" |]

(* Layout of a domain's counter block. *)
let o_depth = 0
let o_top = 1 (* time inside outermost spans *)
let o_req = 2 (* id of the current request or window *)
let o_ring = 3 (* spans recorded so far *)
let o_self = 8
let o_count = 16
let o_start = 32
let o_child = 64
let block = 128 (* room for 32 levels of nesting *)
let ring = 4096

type dom = { st : int array; r_layer : int array; r_id : int array; r_self : int array }
type t = dom array

let create domains : t =
  Array.init domains (fun _ ->
      {
        st = Array.make block 0;
        r_layer = Array.make ring 0;
        r_id = Array.make ring 0;
        r_self = Array.make ring 0;
      })

(* Forget the totals (after the warm-up); no span may be open. *)
let reset (t : t) = Array.iter (fun d -> Array.fill d.st 0 block 0) t

let set_req d id = d.st.(o_req) <- id

let enter d =
  let st = d.st in
  let k = st.(o_depth) in
  st.(o_start + k) <- now ();
  st.(o_child + k) <- 0;
  st.(o_depth) <- k + 1

let leave d layer =
  let t = now () in
  let st = d.st in
  let k = st.(o_depth) - 1 in
  st.(o_depth) <- k;
  let dur = t - st.(o_start + k) in
  let self = dur - st.(o_child + k) in
  st.(o_self + layer) <- st.(o_self + layer) + self;
  st.(o_count + layer) <- st.(o_count + layer) + 1;
  if k > 0 then st.(o_child + k - 1) <- st.(o_child + k - 1) + dur
  else st.(o_top) <- st.(o_top) + dur;
  let r = st.(o_ring) land (ring - 1) in
  st.(o_ring) <- st.(o_ring) + 1;
  d.r_layer.(r) <- layer;
  d.r_id.(r) <- st.(o_req);
  d.r_self.(r) <- self

let self_ns (t : t) layer = Array.fold_left (fun a d -> a + d.st.(o_self + layer)) 0 t
let count (t : t) layer = Array.fold_left (fun a d -> a + d.st.(o_count + layer)) 0 t
let top_ns (t : t) s = t.(s).st.(o_top)

(* The slowest request (or window) whose spans are all still in domain
   0's ring: its id, its traced time, and per layer its self time and
   span count.  Self times partition the outermost spans, so their sum
   is the time the request spent inside traced calls. *)
let slowest (t : t) =
  let d = t.(0) in
  let n = min d.st.(o_ring) ring in
  let first = d.st.(o_ring) - n in
  let oldest = d.r_id.(first land (ring - 1)) and current = d.st.(o_req) in
  let per = Hashtbl.create 64 in
  for i = first to first + n - 1 do
    let r = i land (ring - 1) in
    let id = d.r_id.(r) in
    if id <> oldest && id <> current then begin
      let cur =
        match Hashtbl.find_opt per id with
        | Some c -> c
        | None ->
          let c = Array.make (2 * layers) 0 in
          Hashtbl.add per id c;
          c
      in
      let l = d.r_layer.(r) in
      cur.(l) <- cur.(l) + d.r_self.(r);
      cur.(layers + l) <- cur.(layers + l) + 1
    end
  done;
  Hashtbl.fold
    (fun id cur best ->
      let total = Array.fold_left ( + ) 0 (Array.sub cur 0 layers) in
      match best with
      | Some (_, b, _) when b >= total -> best
      | _ -> Some (id, total, cur))
    per None
