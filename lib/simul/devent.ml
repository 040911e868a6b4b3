(* A binary min-heap of scheduled deliveries, keyed by (time, sequence
   number) so simultaneous events keep their send order. *)
module Heap = struct
  (* [run = None]: message delivery on edge (src,dst).  [run = Some f]:
     a timer — [f] fires when the entry reaches the head (src/dst are
     ignored). *)
  type entry = {
    time : float;
    seq : int;
    src : int;
    dst : int;
    run : (unit -> unit) option;
  }

  type t = { mutable data : entry array; mutable size : int }

  let create () =
    {
      data = Array.make 64 { time = 0.0; seq = 0; src = 0; dst = 0; run = None };
      size = 0;
    }

  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h e =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) e in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- e;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && lt h.data.(!i) h.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && lt h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.size && lt h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

type t = {
  latency : src:int -> dst:int -> float;
  heap : Heap.t;
  last_on_edge : (int * int, float) Hashtbl.t;
  mutable now : float;
  mutable seq : int;
}

let create ~latency =
  { latency; heap = Heap.create (); last_on_edge = Hashtbl.create 64; now = 0.0; seq = 0 }

let unit_latency ~src:_ ~dst:_ = 1.0

let now t = t.now

let clock t () = t.now

let advance_to t time = if time > t.now then t.now <- time

let notify t ~src ~dst =
  let lat = t.latency ~src ~dst in
  if lat <= 0.0 then invalid_arg "Devent: latency must be positive";
  let earliest = t.now +. lat in
  let fifo_floor =
    match Hashtbl.find_opt t.last_on_edge (src, dst) with
    | Some last -> Float.max earliest last
    | None -> earliest
  in
  Hashtbl.replace t.last_on_edge (src, dst) fifo_floor;
  t.seq <- t.seq + 1;
  Heap.push t.heap { Heap.time = fifo_floor; seq = t.seq; src; dst; run = None }

(* Timers share the event axis but not the per-edge FIFO floor: a timer
   never delays, and is never delayed by, message deliveries. *)
let at t time f =
  let time = Float.max time t.now in
  t.seq <- t.seq + 1;
  Heap.push t.heap { Heap.time = time; seq = t.seq; src = -1; dst = -1; run = Some f }

let after t delay f =
  if delay < 0.0 then invalid_arg "Devent.after: negative delay";
  at t (t.now +. delay) f

let pending t = t.heap.Heap.size

(* A scheduled delivery pops its channel's oldest frame: [notify] ran
   once per enqueued frame, in send order, so the channel holds one. *)
let step t net handler =
  match Heap.pop t.heap with
  | None -> false
  | Some { Heap.time; src; dst; run; _ } ->
    if time > t.now then t.now <- time;
    (match run with
    | Some f -> f ()
    | None -> (
      match Network.pop net ~src ~dst with
      | Some f -> handler ~src ~dst f
      | None ->
        failwith
          (Printf.sprintf
             "Devent.drain: no frame queued on %d->%d (is the network's on_send \
              this clock's notify?)"
             src dst)));
    true

(* Top-level, so a drain conses no closure. *)
let rec drain_from t net handler n =
  if step t net handler then drain_from t net handler (n + 1) else n

let drain t net ~handler = drain_from t net handler 0
