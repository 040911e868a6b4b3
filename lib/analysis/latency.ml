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
  let n = Tree.n_nodes tree in
  let latest = Array.make n 0.0 in
  let latencies = ref [] in
  List.iter
    (fun (q : float Oat.Request.t) ->
      Simul.Devent.advance_to clock (Simul.Devent.now clock +. inter_arrival);
      match q.op with
      | Oat.Request.Write v ->
        latest.(q.node) <- v;
        M.write sys ~node:q.node v;
        ignore (Simul.Devent.drain clock net ~handler)
      | Oat.Request.Combine ->
        let t0 = Simul.Devent.now clock in
        let finished = ref None in
        M.combine sys ~node:q.node (fun value ->
            finished := Some (value, Simul.Devent.now clock));
        ignore (Simul.Devent.drain clock net ~handler);
        (match !finished with
        | None -> failwith "Latency.run: combine did not complete"
        | Some (value, t1) ->
          let expected = Array.fold_left ( +. ) 0.0 latest in
          if Float.abs (value -. expected) > 1e-6 *. Float.max 1.0 (Float.abs expected)
          then failwith "Latency.run: strict consistency violated";
          latencies := (t1 -. t0) :: !latencies))
    sigma;
  {
    policy = M.policy_name sys;
    combine_latencies = List.rev !latencies;
    messages = M.message_total sys;
    virtual_makespan = Simul.Devent.now clock;
  }

let run ?inter_arrival tree ~policy sigma =
  run_timed ?inter_arrival tree ~policy:(fun ~now:_ -> policy) sigma

let summary r = Stats.summarize r.combine_latencies
