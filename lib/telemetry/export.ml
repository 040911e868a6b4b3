(* Chrome trace-event JSON export (the "JSON Object Format" understood
   by chrome://tracing and Perfetto).  One Chrome process per shard (pid
   = the event's shard tag, 0 on a single domain), one thread track per
   tree node within it: completed request spans become "X" (complete)
   events with a duration, everything else becomes "i" (instant) events
   on the track of the node where it happened.  Events on the control
   lane ([node = -1]: the sharded engine's window-superstep spans
   ingress/drain/decision) land on a "supersteps" thread per shard.
   Timestamps are virtual times scaled by [time_scale], so one virtual
   time unit displays as one millisecond (the "ts" field is in
   microseconds). *)

let default_kind_name i = "kind" ^ string_of_int i
let time_scale = 1000.0

let chrome_trace ?(kind_name = default_kind_name) ?n_nodes ?(shards = 0)
    events =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit fields =
    if !first then first := false else Buffer.add_string b ",";
    Buffer.add_string b "\n{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v))
      fields;
    Buffer.add_char b '}'
  in
  let str s = Printf.sprintf "\"%s\"" (Metrics.escape_json s) in
  let ts time = Printf.sprintf "%.3f" (time *. time_scale) in
  let name_track ~meta ~pid ~tid name =
    emit
      [
        ("name", str meta);
        ("ph", str "M");
        ("pid", string_of_int pid);
        ("tid", string_of_int tid);
        ("args", Printf.sprintf "{\"name\":%s}" (str name));
      ]
  in
  for s = 0 to shards - 1 do
    name_track ~meta:"process_name" ~pid:s ~tid:0 ("shard " ^ string_of_int s);
    name_track ~meta:"thread_name" ~pid:s ~tid:(-1) "supersteps"
  done;
  (match n_nodes with
  | None -> ()
  | Some n ->
    for u = 0 to n - 1 do
      name_track ~meta:"thread_name" ~pid:0 ~tid:u ("node " ^ string_of_int u)
    done);
  let completed, _unmatched = Span.pair events in
  let paired = Hashtbl.create 64 in
  List.iter (fun (s : Span.completed) -> Hashtbl.replace paired s.id ()) completed;
  List.iter
    (fun (s : Span.completed) ->
      emit
        [
          ("name", str s.name);
          ("cat", str (if s.node < 0 then "superstep" else "request"));
          ("ph", str "X");
          ("ts", ts s.t0);
          ("dur", Printf.sprintf "%.3f" ((s.t1 -. s.t0) *. time_scale));
          ("pid", string_of_int s.shard);
          ("tid", string_of_int s.node);
          ("args", Printf.sprintf "{\"span\":%d}" s.id);
        ])
    completed;
  let instant ~name ~cat ~time ~shard ~tid ~args =
    emit
      [
        ("name", str name);
        ("cat", str cat);
        ("ph", str "i");
        ("ts", ts time);
        ("pid", string_of_int shard);
        ("tid", string_of_int tid);
        ("s", str "t");
        ("args", args);
      ]
  in
  List.iter
    (fun e ->
      match e with
      | Sink.Sent { time; shard; src; dst; kind } ->
        instant ~name:("send " ^ kind_name kind) ~cat:"net" ~time ~shard
          ~tid:src
          ~args:(Printf.sprintf "{\"src\":%d,\"dst\":%d}" src dst)
      | Sink.Delivered { time; shard; src; dst; kind } ->
        instant ~name:("recv " ^ kind_name kind) ~cat:"net" ~time ~shard
          ~tid:dst
          ~args:(Printf.sprintf "{\"src\":%d,\"dst\":%d}" src dst)
      | Sink.Lease_set { time; shard; granter; grantee } ->
        instant ~name:"lease set" ~cat:"lease" ~time ~shard ~tid:granter
          ~args:(Printf.sprintf "{\"grantee\":%d}" grantee)
      | Sink.Lease_broken { time; shard; granter; grantee } ->
        instant ~name:"lease break" ~cat:"lease" ~time ~shard ~tid:granter
          ~args:(Printf.sprintf "{\"grantee\":%d}" grantee)
      | Sink.Lease_denied { time; shard; granter; grantee } ->
        instant ~name:"lease deny" ~cat:"lease" ~time ~shard ~tid:granter
          ~args:(Printf.sprintf "{\"grantee\":%d}" grantee)
      | Sink.Mark { time; shard; node; name } ->
        instant ~name ~cat:"mark" ~time ~shard ~tid:(max node 0) ~args:"{}"
      | Sink.Span_begin { time; shard; node; name; id } ->
        if not (Hashtbl.mem paired id) then
          instant ~name:(name ^ " (open)") ~cat:"request" ~time ~shard
            ~tid:node
            ~args:(Printf.sprintf "{\"span\":%d}" id)
      | Sink.Span_end { time; shard; node; name; id } ->
        if not (Hashtbl.mem paired id) then
          instant ~name:(name ^ " (end)") ~cat:"request" ~time ~shard
            ~tid:node
            ~args:(Printf.sprintf "{\"span\":%d}" id))
    events;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
