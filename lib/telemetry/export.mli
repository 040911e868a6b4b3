(** Chrome trace-event export.

    {!chrome_trace} renders a recorded event list as trace-event JSON
    ("JSON Object Format") loadable in [chrome://tracing] or Perfetto:
    one process per shard (pid = each event's shard tag, so a
    single-domain run is pid 0), one thread track per tree node,
    completed spans as ["X"] complete events with durations, message /
    lease / mark events as ["i"] instants on the track of the node
    where they happened, and ["M"] metadata events naming the tracks. *)

val chrome_trace :
  ?kind_name:(int -> string) ->
  ?n_nodes:int ->
  ?shards:int ->
  Sink.event list ->
  string
(** [kind_name] maps the integer kind indices carried by [Sent] /
    [Delivered] events back to names (pass the simulator's
    [Kind.to_string ∘ Kind.of_index]; defaults to ["kind<i>"]).
    Event times are scaled by 1000 into the microsecond ["ts"] field,
    so one virtual time unit displays as 1 ms.  [n_nodes]
    emits named per-node tracks (pid 0).  [shards] (default 0) names
    the first [shards] processes ["shard <s>"], each with a
    ["supersteps"] thread (tid -1) carrying the sharded engine's
    window-phase spans (ingress / drain / decision, recorded at node
    -1, category ["superstep"]); feed it the merged per-shard event
    streams (e.g. [Sharded.fleet_events]). *)

val write_file : string -> string -> unit
(** [write_file path contents]: create/truncate [path] and write. *)
