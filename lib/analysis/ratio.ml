type run = {
  policy : string;
  online_cost : int;
  opt_lease_cost : int;
  nice_cost : int;
  n_requests : int;
  n_combines : int;
  n_writes : int;
}

let measure tree ~policy sigma =
  let algo = Baselines.Algorithm.of_policy policy tree in
  let online_cost = Baselines.Algorithm.run algo sigma in
  let n_requests = List.length sigma in
  let n_combines = List.length (List.filter Oat.Request.is_combine sigma) in
  {
    policy = algo.Baselines.Algorithm.name;
    online_cost;
    opt_lease_cost = Offline.Opt_lease.total tree sigma;
    nice_cost = Offline.Nice_bound.total tree sigma;
    n_requests;
    n_combines;
    n_writes = n_requests - n_combines;
  }

let ratio num den =
  if den > 0 then float_of_int num /. float_of_int den
  else if num = 0 then 1.0
  else Float.infinity

let vs_opt_lease r = ratio r.online_cost r.opt_lease_cost
let vs_nice r = ratio r.online_cost r.nice_cost

let pp fmt r =
  Format.fprintf fmt
    "%s: cost=%d opt-lease=%d (x%.3f) nice>=%d (x%.3f) over %d reqs (%dR/%dW)"
    r.policy r.online_cost r.opt_lease_cost (vs_opt_lease r) r.nice_cost
    (vs_nice r) r.n_requests r.n_combines r.n_writes
