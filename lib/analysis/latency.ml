module M = Oat.Mechanism.Make (Agg.Ops.Sum)

type result = {
  policy : string;
  combine_latencies : float list;
  messages : int;
  virtual_makespan : float;
}

let run_timed ?(inter_arrival = 0.0) tree ~policy sigma =
  let clock = Simul.Devent.create ~latency:Simul.Devent.unit_latency in
  let policy = policy ~now:(fun () -> Simul.Devent.now clock) in
  let sys = M.create ~on_send:(Simul.Devent.notify clock) tree ~policy in
  let net = M.network sys and handler = M.handler sys in
  let step start =
    Simul.Devent.advance_to clock (Simul.Devent.now clock +. inter_arrival);
    start ();
    ignore (Simul.Devent.drain clock net ~handler)
  in
  let latencies = ref [] in
  let combine ~node =
    let finished = ref None in
    step (fun () ->
        let t0 = Simul.Devent.now clock in
        M.combine sys ~node (fun value ->
            finished := Some (value, Simul.Devent.now clock -. t0)));
    match !finished with
    | None -> failwith "Latency.run: combine did not complete"
    | Some (value, latency) ->
      latencies := latency :: !latencies;
      value
  in
  let messages =
    Baselines.Algorithm.run
      {
        Baselines.Algorithm.name = M.policy_name sys;
        write = (fun ~node v -> step (fun () -> M.write sys ~node v));
        combine;
        message_total = (fun () -> Simul.Network.total net);
      }
      sigma
  in
  {
    policy = M.policy_name sys;
    combine_latencies = List.rev !latencies;
    messages;
    virtual_makespan = Simul.Devent.now clock;
  }

let run ?inter_arrival tree ~policy sigma =
  run_timed ?inter_arrival tree ~policy:(fun ~now:_ -> policy) sigma

let summary r = Stats.summarize r.combine_latencies
