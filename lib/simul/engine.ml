exception Divergence of { deliveries : int; budget : int }

let () =
  Printexc.register_printer (function
    | Divergence { deliveries; budget } ->
      Some
        (Printf.sprintf
           "Simul.Engine.Divergence: %d deliveries exceeded the budget of %d \
            (protocol not quiescing?)"
           deliveries budget)
    | _ -> None)

let default_max_deliveries = 100_000_000

(* Top-level so the call allocates nothing (the sharded engine runs
   this once per shard-window and gates steady-state words): a local
   [let rec] would cons a closure over [net]/[handler] per call. *)
let rec drive net handler max_deliveries count =
  if count > max_deliveries then
    raise (Divergence { deliveries = count; budget = max_deliveries });
  if Network.deliver_any net ~handler then
    drive net handler max_deliveries (count + 1)
  else count

let run_to_quiescence ?(max_deliveries = default_max_deliveries) net ~handler =
  drive net handler max_deliveries 0

(* Top-level for the same reason as [drive]: the per-request loop of a
   generator-driven feed must not cons.  With a latency recorder each
   request's lifecycle is one issue/settle pair on the network's clock
   axis — sequential executions settle at the quiescence their drain
   reaches — and the deliveries of the drain are its message cost.
   Disabled ([Latency.null], the default) this is one cached-bool
   branch per request. *)
let rec stream_loop net handler next max_deliveries lat clock acc =
  if next () then begin
    if Telemetry.Latency.enabled lat then Telemetry.Latency.issue lat (clock ());
    let d = drive net handler max_deliveries 0 in
    if Telemetry.Latency.enabled lat then
      Telemetry.Latency.settle_oldest lat ~time:(clock ()) ~msgs:d;
    stream_loop net handler next max_deliveries lat clock (acc + d)
  end
  else acc

let run_stream ?(max_deliveries = default_max_deliveries)
    ?(latency = Telemetry.Latency.null) net ~handler ~next =
  stream_loop net handler next max_deliveries latency (Network.clock net) 0

let run_concurrent ?(max_deliveries = default_max_deliveries)
    ?(sink = Telemetry.Sink.null) ?(latency = Telemetry.Latency.null) ?clock
    ~rng net ~handler ~requests =
  let clock = match clock with Some c -> c | None -> Network.clock net in
  let delivered = ref 0 in
  let counted ~src ~dst m =
    incr delivered;
    if !delivered > max_deliveries then
      raise (Divergence { deliveries = !delivered; budget = max_deliveries });
    handler ~src ~dst m
  in
  let deliver_one () = Network.deliver_random net rng ~handler:counted in
  let deliver_some () =
    (* Geometric number of deliveries: keeps schedules adversarially
       varied while guaranteeing progress. *)
    let rec go () =
      if Prng.Splitmix.bernoulli rng 0.7 then
        if deliver_one () then go ()
    in
    go ()
  in
  (* Latency accounting rides the schedule without touching it (no extra
     PRNG draws, no extra deliveries): requests settle in issue order at
     the quiescent points the random schedule happens to reach, with the
     deliveries since the previous settle split over the settling batch. *)
  let last_settle = ref 0 in
  let maybe_settle () =
    if
      Telemetry.Latency.enabled latency
      && Telemetry.Latency.outstanding latency > 0
      && Network.is_quiescent net
    then begin
      Telemetry.Latency.settle_all latency ~time:(clock ())
        ~msgs:(!delivered - !last_settle);
      last_settle := !delivered
    end
  in
  Array.iteri
    (fun i initiate ->
      deliver_some ();
      maybe_settle ();
      if Telemetry.Sink.enabled sink then
        Telemetry.Sink.record sink
          (Telemetry.Sink.Mark
             { time = clock (); shard = 0; node = i; name = "initiate" });
      if Telemetry.Latency.enabled latency then
        Telemetry.Latency.issue latency (clock ());
      initiate ())
    requests;
  (* Drain. *)
  let rec drain () = if deliver_one () then drain () in
  drain ();
  if Telemetry.Latency.enabled latency then
    Telemetry.Latency.settle_all latency ~time:(clock ())
      ~msgs:(!delivered - !last_settle)
