(* Event sinks.  The hot-path contract: instrumentation points
   guard with [if Sink.enabled sink then Sink.record sink (Event ...)],
   so with the null sink the event constructor is never allocated and
   the cost is one branch.  Message kinds are carried as integer indices
   (the simulator's [Kind.index]) to keep this library dependency-free. *)

type event =
  | Sent of { time : float; shard : int; src : int; dst : int; kind : int }
  | Delivered of { time : float; shard : int; src : int; dst : int; kind : int }
  | Lease_set of { time : float; shard : int; granter : int; grantee : int }
  | Lease_broken of { time : float; shard : int; granter : int; grantee : int }
  | Lease_denied of { time : float; shard : int; granter : int; grantee : int }
  | Span_begin of { time : float; shard : int; node : int; name : string; id : int }
  | Span_end of { time : float; shard : int; node : int; name : string; id : int }
  | Mark of { time : float; shard : int; node : int; name : string }

let event_time = function
  | Sent { time; _ }
  | Delivered { time; _ }
  | Lease_set { time; _ }
  | Lease_broken { time; _ }
  | Lease_denied { time; _ }
  | Span_begin { time; _ }
  | Span_end { time; _ }
  | Mark { time; _ } ->
    time

(* Bounded ring: overwrites the oldest event once full, counting what it
   dropped, so a long run records its tail instead of growing without
   bound. *)
type ring = {
  data : event array;
  capacity : int;
  mutable next : int; (* slot the next event goes into *)
  mutable stored : int; (* <= capacity *)
  mutable total : int; (* recorded since creation / last clear *)
}

let dummy = Mark { time = 0.0; shard = 0; node = 0; name = "" }

let ring ~capacity =
  if capacity < 1 then invalid_arg "Sink.ring: capacity must be >= 1";
  { data = Array.make capacity dummy; capacity; next = 0; stored = 0; total = 0 }

let ring_record r e =
  r.data.(r.next) <- e;
  r.next <- (r.next + 1) mod r.capacity;
  if r.stored < r.capacity then r.stored <- r.stored + 1;
  r.total <- r.total + 1

let ring_events r =
  let first = (r.next - r.stored + r.capacity) mod r.capacity in
  List.init r.stored (fun i -> r.data.((first + i) mod r.capacity))

let ring_length r = r.stored

let ring_total r = r.total

let ring_dropped r = r.total - r.stored

let ring_clear r =
  Array.fill r.data 0 r.capacity dummy;
  r.next <- 0;
  r.stored <- 0;
  r.total <- 0

type t = Null | Ring of ring

let null = Null

let of_ring r = Ring r

let enabled = function Null -> false | Ring _ -> true

let record t e =
  match t with Null -> () | Ring r -> ring_record r e
