(* Command-line interface to the library.

   Subcommands:
     simulate   run a synthetic workload under a chosen policy and report
                message costs and competitive ratios
     lp         solve the Figure 5 linear program
     adversary  run the Theorem 3 adversary against an (a,b)-algorithm
     sweep      read-fraction sweep of static vs adaptive strategies
     tables     regenerate every experiment table (same as the bench) *)

open Cmdliner

module Sm = Prng.Splitmix

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("oat: " ^ msg);
    exit 2

(* ---- shared arguments ---- *)

let seed_arg =
  let doc = "PRNG seed (all runs are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let nodes_arg =
  let doc = "Number of tree nodes." in
  Arg.(value & opt int 15 & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let tree_arg =
  let doc =
    "Tree topology: one of path, star, binary, ternary, caterpillar, random."
  in
  Arg.(value & opt string "random" & info [ "tree" ] ~docv:"KIND" ~doc)

(* A count argument checked in its term, so a negative count ends in
   one line before any command runs. *)
let count_arg long ~default ~docv ~doc =
  let check k =
    if k >= 0 then k
    else
      or_die (Error (Printf.sprintf "--%s must be at least 0 (got %d)" long k))
  in
  let arg =
    Arg.value (Arg.opt Arg.int default (Arg.info [ long ] ~docv ~doc))
  in
  Term.(const check $ arg)

let requests_arg =
  count_arg "requests" ~default:1000 ~docv:"COUNT"
    ~doc:"Number of requests to generate."

let read_fraction_arg =
  let doc = "Fraction of requests that are combines (reads), in [0, 1]." in
  let check p =
    if p >= 0.0 && p <= 1.0 then p
    else
      or_die (Error (Printf.sprintf "--read-fraction must be in [0, 1] (got %g)" p))
  in
  Term.(
    const check
    $ Arg.(value & opt float 0.5 & info [ "read-fraction" ] ~docv:"P" ~doc))

let policy_arg =
  let doc =
    "Lease policy: rww, ab:A,B (e.g. ab:2,3), always, never (also named \
     mds2), or the standalone baseline astrolabe."
  in
  Arg.(value & opt string "rww" & info [ "policy" ] ~docv:"POLICY" ~doc)

let build_tree kind n seed =
  let build f =
    if n < 1 then Error (Printf.sprintf "--nodes must be at least 1 (got %d)" n)
    else
      match f () with
      | tree -> Ok tree
      | exception (Invalid_argument msg | Tree.Invalid_tree msg) -> Error msg
  in
  match kind with
  | "path" -> build (fun () -> Tree.Build.path n)
  | "star" -> build (fun () -> Tree.Build.star n)
  | "binary" -> build (fun () -> Tree.Build.binary n)
  | "ternary" -> build (fun () -> Tree.Build.kary ~k:3 n)
  | "caterpillar" ->
    build (fun () ->
        let spine = max 1 (n / 4) in
        let legs = max 1 ((n / spine) - 1) in
        Tree.Build.caterpillar ~spine ~legs)
  | "random" -> build (fun () -> Tree.Build.random (Sm.create (seed + 17)) n)
  | other -> Error (Printf.sprintf "unknown tree kind %S" other)

let parse_ab s =
  match String.split_on_char ',' s with
  | [ a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some a, Some b when a >= 1 && b >= 1 -> Ok (a, b)
    | _ -> Error (Printf.sprintf "bad (a,b) spec %S" s))
  | _ -> Error (Printf.sprintf "bad (a,b) spec %S" s)

(* Lease-policy specs drivable through Mechanism.Make directly (where the
   telemetry instrumentation lives); the standalone astrolabe baseline
   bypasses the mechanism and cannot be traced. *)
let build_lease_policy spec =
  match spec with
  | "rww" -> Ok Oat.Rww.policy
  | "always" -> Ok Oat.Ab_policy.always_lease
  | "never" | "mds2" | "mds-2" -> Ok Oat.Ab_policy.never_lease
  | s when String.length s > 3 && String.sub s 0 3 = "ab:" -> (
    match parse_ab (String.sub s 3 (String.length s - 3)) with
    | Ok (a, b) -> Ok (Oat.Ab_policy.policy ~a ~b)
    | Error e -> Error e)
  | "astrolabe" ->
    Error
      "\"astrolabe\" is a standalone baseline; telemetry needs a lease \
       policy (rww, always, never, ab:A,B)"
  | other -> Error (Printf.sprintf "unknown lease policy %S" other)

(* Every spec as a sequential algorithm: the two static baselines by
   name, and the lease policies through the mechanism. *)
let build_algo spec tree =
  match spec with
  | "astrolabe" -> Ok (Baselines.Algorithm.astrolabe tree)
  | "mds2" | "mds-2" -> Ok (Baselines.Algorithm.mds2 tree)
  | spec ->
    Result.map
      (fun policy -> Baselines.Algorithm.of_policy policy tree)
      (build_lease_policy spec)

(* The uniform workload every subcommand generates from its seed. *)
let mixed tree ~requests ~read_fraction seed =
  Workload.Generate.mixed
    { Workload.Generate.default_spec with n_requests = requests; read_fraction }
    tree (Sm.create seed)

(* Output files named by --trace/--metrics/--series: their directory is
   checked before the run starts, so a bad path costs no simulation; a
   write that still fails ends in the same one-line error. *)
let check_out_file opt = function
  | None -> ()
  | Some path ->
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      or_die (Error (Printf.sprintf "%s %s: no such directory %s" opt path dir));
    if Sys.file_exists path && Sys.is_directory path then
      or_die (Error (Printf.sprintf "%s %s: is a directory" opt path))

let write_out path contents =
  try Telemetry.Export.write_file path contents
  with Sys_error msg -> or_die (Error msg)

(* ---- instrumented mechanism runs (simulate --trace/--metrics, metrics) ---- *)

module M = Oat.Mechanism.Make (Agg.Ops.Sum)

let kind_name i = Simul.Kind.to_string (Simul.Kind.of_index i)

(* Drive sigma through an instrumented mechanism on virtual time: a
   virtual-time algorithm, as in Analysis.Latency.run_timed, with
   telemetry plugged in, run and judged by Baselines.Algorithm.run.
   [latency] records each request issue->settle on the virtual-hop
   clock; [series] stores one sample per request (the single-domain
   "window" is the request index). *)
let run_instrumented ?(latency = Telemetry.Latency.null)
    ?(series = Telemetry.Series.null) tree sigma ~policy ~metrics ~sink =
  let dclock = Simul.Devent.create ~latency:Simul.Devent.unit_latency in
  let sys =
    M.create ~on_send:(Simul.Devent.notify dclock) ~metrics ~sink
      ~clock:(Simul.Devent.clock dclock)
      tree ~policy
  in
  let net = M.network sys and handler = M.handler sys in
  let idx = ref 0 in
  let step start =
    if Telemetry.Latency.enabled latency then
      Telemetry.Latency.issue latency (Simul.Devent.now dclock);
    let g0 = if Telemetry.Series.enabled series then Gc.minor_words () else 0. in
    start ();
    let d = Simul.Devent.drain dclock net ~handler in
    if Telemetry.Latency.enabled latency then
      Telemetry.Latency.settle_oldest latency
        ~time:(Simul.Devent.now dclock)
        ~msgs:d;
    if Telemetry.Series.enabled series then
      Telemetry.Series.sample series ~window:!idx ~deliveries:d ~in_flight:0
        ~mailbox_hwm:0 ~stalls:0
        ~gc_words:(int_of_float (Gc.minor_words () -. g0));
    incr idx
  in
  let combine ~node =
    let result = ref None in
    step (fun () -> M.combine sys ~node (fun value -> result := Some value));
    match !result with
    | Some value -> value
    | None -> or_die (Error "combine did not complete")
  in
  (try
     ignore
       (Baselines.Algorithm.run
          {
            Baselines.Algorithm.name = M.policy_name sys;
            write = (fun ~node v -> step (fun () -> M.write sys ~node v));
            combine;
            message_total = (fun () -> Simul.Network.total net);
          }
          sigma)
   with Failure msg -> or_die (Error msg));
  (sys, Simul.Devent.now dclock)

(* ---- sharded simulate runs (--domains) ---- *)

(* The paper's sequential executions through Simul.Sharded: one domain
   per shard, every combine judged by Consistency.Strict (sequential
   semantics make each combine's answer the sum of all earlier writes,
   independently of the shard count). *)
let run_sharded tree sigma ~policy ~part ~trace ~series ~latency =
  let sys = M.create tree ~policy in
  let sh =
    Simul.Sharded.create ~trace ~series ~latency tree ~partition:part
      ~handler:(M.handler sys)
  in
  M.set_outbox sys
    ~send:(Simul.Sharded.route sh)
    ~pool_for:(Simul.Sharded.pool_for sh);
  let sigma = Array.of_list sigma in
  (* nan until answered: a float store allocates nothing on the shard
     domains *)
  let answers = Array.make (Array.length sigma) nan in
  let requests =
    Array.mapi
      (fun i (q : float Oat.Request.t) ->
        ( q.node,
          match q.op with
          | Oat.Request.Write v -> fun () -> M.write sys ~node:q.node v
          | Oat.Request.Combine ->
            fun () -> M.combine sys ~node:q.node (fun v -> answers.(i) <- v) ))
      sigma
  in
  Simul.Sharded.run_sequential sh ~requests;
  let result i =
    let a = answers.(i) in
    {
      Oat.Request.request = sigma.(i);
      returned = (if Float.is_nan a then None else Some a);
    }
  in
  (match
     Consistency.Strict.violations
       (module Agg.Ops.Sum)
       ~n_nodes:(Tree.n_nodes tree)
       (List.init (Array.length sigma) result)
   with
  | [] -> ()
  | v :: _ ->
    or_die (Error (Format.asprintf "%a" Consistency.Strict.pp_violation v)));
  (sys, sh)

(* ---- simulate: output every run shares ---- *)

(* --metrics FILE: JSON if it ends in .json, aligned text otherwise. *)
let write_metrics ?(note = "") m path =
  write_out path
    (if Filename.check_suffix path ".json" then Telemetry.Metrics.to_json m
     else Telemetry.Metrics.to_text m);
  Printf.printf "metrics:           %s%s\n" path note

let print_header tree_kind tree ~requests ~read_fraction seed =
  Printf.printf "tree:              %s (n=%d, diameter=%d)\n" tree_kind
    (Tree.n_nodes tree) (Tree.diameter tree);
  Printf.printf "workload:          %d requests, read fraction %.2f, seed %d\n"
    requests read_fraction seed

let print_causal violations =
  Printf.printf "causal consistency: %s\n"
    (if violations = 0 then "verified (ghost-log checker)" else "VIOLATED")

(* ---- simulate --faults / --churn ---- *)

(* A plan, parsed, that fits the tree (Fault.Plan.check), before any
   output: a plan Fault.Runner or Fault.Churn would reject ends in one
   line. *)
let plan_for tree spec_str =
  or_die
    (Result.bind (Fault.Plan.spec_of_string spec_str) (Fault.Plan.check tree))

(* A plan on one domain: Fault.Runner, the mechanism over the reliable
   transport over a faulty network, on virtual time.  --faults and
   --churn differ only in the plan's label and in [repair], the Merkle
   anti-entropy pass that heals ghost-log divergence at the end of a
   --churn run. *)
let run_plan ~header ~label ~repair ~metrics_out seed tree spec ~policy sigma =
  header ();
  Printf.printf "%-19s%s\n" label (Fault.Plan.spec_to_string spec);
  let metrics = Telemetry.Metrics.create () in
  let plan = Fault.Plan.create ~metrics ~seed spec in
  let module R = Fault.Runner.Make (Agg.Ops.Sum) in
  let o = R.run ~metrics ~plan ~repair ~tree ~policy ~requests:sigma () in
  Format.printf "%a@." R.pp_outcome o;
  print_causal o.R.causal_violations;
  let diverged = repair && o.R.divergence_after <> 0 in
  if repair then
    Printf.printf "anti-entropy:      %s\n"
      (if diverged then "DIVERGED" else "converged (zero divergence)");
  Option.iter (write_metrics metrics) metrics_out;
  if o.R.causal_violations > 0 || diverged then exit 1

(* --churn on --domains N: the plan compiled into reconfiguration-barrier
   phases (Fault.Churn) on the sharded engine, repartitioned at every
   barrier, healed by the anti-entropy pass at the end. *)
let run_churn_sharded ~header ~domains tree spec ~policy sigma =
  let module C = Fault.Churn.Make (Agg.Ops.Sum) in
  let phases =
    try C.phases_of_plan ~spec ~requests:sigma ()
    with Invalid_argument _ ->
      or_die
        (Error
           "--churn with --domains schedules events at quiescent barriers; \
            drop/dup/reorder/delay do not apply (drop them from the spec)")
  in
  header ();
  Printf.printf "churn plan:        %s\n" (Fault.Plan.spec_to_string spec);
  let o =
    C.run_sharded ~repair:true ~detached:spec.Fault.Plan.detached ~domains
      ~tree ~policy ~phases ()
  in
  Printf.printf "domains:           %d (repartitioned at every barrier)\n"
    domains;
  Printf.printf "phases:            %d (%d leaves, %d joins, %d crashes)\n"
    (List.length phases) o.C.leaves o.C.joins o.C.crashes;
  Printf.printf "requests:          %d issued, %d skipped (down/detached)\n"
    o.C.issued o.C.skipped;
  Printf.printf "messages:          %d\n" o.C.logical_msgs;
  Printf.printf "divergence:        %d before repair, %d after\n"
    o.C.divergence_before o.C.divergence_after;
  Format.printf "repair:            %a@." Repair.pp_stats o.C.repair_stats;
  print_causal o.C.causal_violations;
  Printf.printf "conservation audit: clean (checked every phase)\n";
  if o.C.causal_violations > 0 || o.C.divergence_after <> 0 then exit 1

(* ---- simulate ---- *)

let simulate seed tree_kind n requests read_fraction policy trace_out
    metrics_out series_out report_flag faults domains partition churn =
  let tree = or_die (build_tree tree_kind n seed) in
  check_out_file "--trace" trace_out;
  check_out_file "--metrics" metrics_out;
  check_out_file "--series" series_out;
  if partition <> None && (churn <> None || domains <= 1) then
    or_die
      (Error "--partition applies only with --domains above 1, without --churn");
  let sigma = mixed tree ~requests ~read_fraction seed in
  let header () = print_header tree_kind tree ~requests ~read_fraction seed in
  match (churn, faults) with
  | Some _, Some _ ->
    or_die (Error "--churn subsumes --faults (one spec grammar); pick one")
  | Some spec_str, None ->
    if report_flag || trace_out <> None || series_out <> None || metrics_out <> None
    then
      or_die (Error "--churn does not combine with --report/--trace/--metrics/--series");
    let spec = plan_for tree spec_str in
    let policy = or_die (build_lease_policy policy) in
    if domains > 1 then
      run_churn_sharded ~header ~domains tree spec ~policy sigma
    else
      run_plan ~header ~label:"churn plan:" ~repair:true ~metrics_out:None seed
        tree spec ~policy sigma
  | None, Some spec_str ->
    if domains > 1 then
      or_die (Error "--domains does not combine with --faults");
    if report_flag || trace_out <> None || series_out <> None then
      or_die
        (Error "--faults does not combine with --report, --trace or --series");
    let spec = plan_for tree spec_str in
    let policy = or_die (build_lease_policy policy) in
    run_plan ~header ~label:"fault plan:" ~repair:false ~metrics_out seed tree
      spec ~policy sigma
  | None, None ->
  let report name cost =
    let opt = Offline.Opt_lease.total tree sigma in
    let nice = Offline.Nice_bound.total tree sigma in
    header ();
    Printf.printf "algorithm:         %s\n" name;
    Printf.printf "messages:          %d\n" cost;
    Printf.printf "offline lease OPT: %d  (ratio %.3f)\n" opt
      (if opt > 0 then float_of_int cost /. float_of_int opt else 1.0);
    Printf.printf "nice lower bound:  %d  (ratio %.3f)\n" nice
      (if nice > 0 then float_of_int cost /. float_of_int nice else 1.0);
    Printf.printf "strict consistency: verified (every combine checked)\n"
  in
  if domains > 1 then begin
    let policy = or_die (build_lease_policy policy) in
    let part =
      match partition with
      | None | Some `Naive -> Tree.Partition.create tree ~shards:domains
      | Some `Weighted ->
        Tree.Partition.create_weighted tree ~shards:domains
          ~weights:(Tree.Partition.subtree_weights tree)
    in
    let trace = match trace_out with Some _ -> 1 lsl 20 | None -> 0 in
    let series =
      match series_out with
      | Some _ -> Telemetry.Series.create ()
      | None -> Telemetry.Series.null
    in
    let latency =
      if report_flag then Telemetry.Latency.create () else Telemetry.Latency.null
    in
    let sys, sh = run_sharded tree sigma ~policy ~part ~trace ~series ~latency in
    report (M.policy_name sys) (M.message_total sys);
    Printf.printf "domains:           %d (edge cut %d)\n" domains
      (Tree.Partition.edge_cut part);
    Printf.printf "partition:         %s (planned balance %.2fx of mean)\n"
      (Tree.Partition.strategy part)
      (Tree.Partition.balance_ratio part);
    Printf.printf "cross-shard:       %d of %d messages\n"
      (Simul.Sharded.crossings sh)
      (M.message_total sys);
    Printf.printf "windows:           %d (%d shard-window stalls)\n"
      (Simul.Sharded.windows sh)
      (Simul.Sharded.stalls sh);
    let work, crit = Simul.Sharded.parallel_work sh in
    Printf.printf "parallel speedup:  %.2f (ideal %d-core critical-path model)\n"
      (float_of_int work /. float_of_int (max 1 crit))
      domains;
    let loads = Tree.Partition.loads part in
    Printf.printf
      "per-shard:         shard |  nodes |   load | deliveries | stalls | \
       mailbox hwm\n";
    for s = 0 to Tree.Partition.k part - 1 do
      Printf.printf "                   %5d | %6d | %6d | %10d | %6d | %11d\n" s
        (Array.length (Tree.Partition.owned part s))
        loads.(s)
        (Simul.Sharded.deliveries_of sh s)
        (Simul.Sharded.stalls_of sh s)
        (Simul.Sharded.mailbox_hwm sh s)
    done;
    let au = Simul.Sharded.audit sh in
    Printf.printf "conservation audit: %d ledger checks, %d violations\n"
      (Telemetry.Audit.checks au)
      (Telemetry.Audit.violations au);
    if report_flag then begin
      Printf.printf "fleet metrics (merged over %d shard registries):\n" domains;
      print_string (Telemetry.Metrics.to_text (Simul.Sharded.fleet_metrics sh));
      print_string (Telemetry.Latency.to_text (Simul.Sharded.latency sh))
    end;
    (match trace_out with
    | Some path ->
      write_out path (Simul.Sharded.fleet_trace sh);
      let n_ev = List.length (Simul.Sharded.fleet_events sh) in
      let dropped = Simul.Sharded.trace_dropped sh in
      Printf.printf "trace:             %s (%d events across %d shard tracks%s)\n"
        path n_ev domains
        (if dropped > 0 then Printf.sprintf ", %d oldest dropped" dropped
         else "")
    | None -> ());
    Option.iter
      (write_metrics ~note:" (fleet-merged)" (Simul.Sharded.fleet_metrics sh))
      metrics_out;
    (match series_out with
    | Some path ->
      let body =
        if Filename.check_suffix path ".json" then Telemetry.Series.to_json series
        else Telemetry.Series.to_csv series
      in
      write_out path body;
      Printf.printf "series:            %s (%d windows sampled%s)\n" path
        (Telemetry.Series.length series)
        (let d = Telemetry.Series.dropped series in
         if d > 0 then Printf.sprintf ", %d oldest dropped" d else "")
    | None -> ())
  end
  else if
    trace_out = None && metrics_out = None && series_out = None
    && not report_flag
  then begin
    let algo = or_die (build_algo policy tree) in
    let cost = Baselines.Algorithm.run algo sigma in
    report algo.Baselines.Algorithm.name cost
  end
  else begin
    let policy = or_die (build_lease_policy policy) in
    let metrics = Telemetry.Metrics.create () in
    let ring =
      match trace_out with
      | Some _ -> Some (Telemetry.Sink.ring ~capacity:(1 lsl 20))
      | None -> None
    in
    let sink =
      match ring with
      | Some r -> Telemetry.Sink.of_ring r
      | None -> Telemetry.Sink.null
    in
    let latency =
      if report_flag then Telemetry.Latency.create () else Telemetry.Latency.null
    in
    let series =
      match series_out with
      | Some _ -> Telemetry.Series.create ()
      | None -> Telemetry.Series.null
    in
    let sys, makespan =
      run_instrumented ~latency ~series tree sigma ~policy ~metrics ~sink
    in
    report (M.policy_name sys) (M.message_total sys);
    Printf.printf "virtual makespan:  %.0f hops\n" makespan;
    if report_flag then begin
      print_string (Telemetry.Metrics.to_text metrics);
      print_string (Telemetry.Latency.to_text latency)
    end;
    (match (trace_out, ring) with
    | Some path, Some r ->
      let events = Telemetry.Sink.ring_events r in
      write_out path
        (Telemetry.Export.chrome_trace ~kind_name
           ~n_nodes:(Tree.n_nodes tree) events);
      let dropped = Telemetry.Sink.ring_dropped r in
      Printf.printf "trace:             %s (%d events%s)\n" path
        (List.length events)
        (if dropped > 0 then Printf.sprintf ", %d oldest dropped" dropped
         else "")
    | _ -> ());
    Option.iter (write_metrics metrics) metrics_out;
    (match series_out with
    | Some path ->
      let body =
        if Filename.check_suffix path ".json" then
          Telemetry.Series.to_json series
        else Telemetry.Series.to_csv series
      in
      write_out path body;
      Printf.printf "series:            %s (%d requests sampled)\n" path
        (Telemetry.Series.length series)
    | None -> ())
  end

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the run, loadable in \
     chrome://tracing or Perfetto.  Switches simulate to an instrumented \
     mechanism run on virtual time; requires a lease policy (rww, always, \
     never, ab:A,B)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_file_arg =
  let doc =
    "Write a metrics snapshot of the run to $(docv) (JSON if it ends in \
     .json, aligned text otherwise).  Requires a lease policy."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let series_file_arg =
  let doc =
    "Write a windowed time-series of the run to $(docv) (JSON if it ends \
     in .json, CSV otherwise): deliveries, in-flight messages, peak \
     mailbox depth, stalls and minor GC words per window (per request on \
     single-domain runs).  Requires a lease policy."
  in
  Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)

let report_arg =
  let doc =
    "Print the full observability report after the run: the metrics \
     snapshot (fleet-merged across shards under --domains) and the \
     request-latency quantiles (p50/p90/p99/max on the virtual-time axis, \
     with per-request message costs).  Requires a lease policy."
  in
  Arg.(value & flag & info [ "report" ] ~doc)

let faults_arg =
  let doc =
    "Run under a seeded fault plan and report recovery behaviour.  $(docv) \
     is comma-separated: drop=P, dup=P, reorder=P[:DEPTH], delay=P[:MAX], \
     crash=NODE@AT+DOWNTIME (repeatable), e.g. \
     'drop=0.1,dup=0.05,crash=3@40+25', plus the --churn membership \
     fields.  The mechanism then runs over a reliable transport \
     (sequence numbers, acks, retransmission) on a faulty network; the \
     execution history is checked causally and the whole run is \
     deterministic in --seed.  Combines with --metrics, but not with \
     --report, --trace, --series or --domains.  Requires a lease policy."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let domains_arg =
  let doc =
    "Run the workload through the sharded multicore engine on $(docv) \
     domains (tree partitioned by subtree ownership, one event loop per \
     domain, conservative one-window lookahead).  Same sequential \
     semantics as the single-domain run — every combine is still checked \
     against the exact aggregate.  Requires a lease policy; combines with \
     --report, --trace (one Chrome track per shard), --metrics \
     (fleet-merged) and --series, but not with --faults."
  in
  let check d =
    if d >= 1 then d
    else or_die (Error (Printf.sprintf "--domains must be at least 1 (got %d)" d))
  in
  Term.(const check $ Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc))

let partition_arg =
  let doc =
    "Partitioner for --domains runs: $(b,naive) splits the post-order into \
     equal node-count ranges; $(b,weighted) splits on subtree sizes (the \
     static cost model for rootward lease cascades, where a node's delivery \
     load is its subtree size), minimising the bottleneck shard.  The \
     per-shard table in the report shows the resulting load balance.  \
     Applies only with --domains above 1 and without --churn (which \
     repartitions at every barrier); absent means $(b,naive)."
  in
  Arg.(
    value
    & opt (some (enum [ ("naive", `Naive); ("weighted", `Weighted) ])) None
    & info [ "partition" ] ~docv:"STRATEGY" ~doc)

let churn_arg =
  let doc =
    "Run under a seeded membership-churn plan and heal with Merkle \
     anti-entropy.  $(docv) uses the --faults grammar plus membership \
     fields: leave=NODE@AT, join=NODE@AT, flap=NODE@AT+DOWN*COUNT:PERIOD, \
     detached=NODE (repeatable), e.g. \
     'drop=0.05,leave=7@30,join=7@64'.  Departs hand their durable value \
     and ghost history to a neighbour under an epoch fence; joins resync \
     via Hello; the run ends with a Merkle anti-entropy pass driving \
     ghost-log divergence to zero and a causal check of the history.  \
     With --domains N the plan is compiled into reconfiguration-barrier \
     phases on the sharded engine (repartitioned at every barrier; \
     probabilistic fields must be absent).  Deterministic in --seed.  \
     Requires a lease policy."
  in
  Arg.(value & opt (some string) None & info [ "churn" ] ~docv:"SPEC" ~doc)

let simulate_cmd =
  let doc = "Run a synthetic workload and report message costs and ratios." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ seed_arg $ tree_arg $ nodes_arg $ requests_arg
      $ read_fraction_arg $ policy_arg $ trace_arg $ metrics_file_arg
      $ series_file_arg $ report_arg $ faults_arg $ domains_arg
      $ partition_arg $ churn_arg)

(* ---- metrics ---- *)

let metrics_run seed tree_kind n requests read_fraction policy json =
  let tree = or_die (build_tree tree_kind n seed) in
  let policy = or_die (build_lease_policy policy) in
  let sigma = mixed tree ~requests ~read_fraction seed in
  let metrics = Telemetry.Metrics.create () in
  let _sys, _makespan =
    run_instrumented tree sigma ~policy ~metrics ~sink:Telemetry.Sink.null
  in
  print_string
    (if json then Telemetry.Metrics.to_json metrics
     else Telemetry.Metrics.to_text metrics)

let metrics_cmd =
  let doc =
    "Run a workload under an instrumented mechanism and print the metrics \
     snapshot."
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of a table.")
  in
  Cmd.v
    (Cmd.info "metrics" ~doc)
    Term.(
      const metrics_run $ seed_arg $ tree_arg $ nodes_arg $ requests_arg
      $ read_fraction_arg $ policy_arg $ json_arg)

(* ---- lp ---- *)

let lp () =
  Printf.printf "Figure 5 LP: literal rows = derived rows: %b\n"
    (Lp.Fig5.rows_coincide ());
  (match Lp.Fig5.solve () with
  | Error e -> Format.printf "LP failed: %a@." Lp.Simplex.pp_error e
  | Ok { c; phi } ->
    Printf.printf "optimal competitive factor c* = %.6f\n" c;
    List.iter
      (fun ((st : Lp.Transition_system.state), v) ->
        Printf.printf "  Phi(%d,%d) = %.4f\n" st.opt st.rww v)
      phi);
  Printf.printf "paper's certificate feasible: %b\n"
    (Lp.Fig5.paper_solution_feasible ())

let lp_cmd =
  let doc = "Solve the paper's Figure 5 linear program with the built-in simplex." in
  Cmd.v (Cmd.info "lp" ~doc) Term.(const lp $ const ())

(* ---- adversary ---- *)

let adversary a b rounds =
  if a < 1 || b < 1 then or_die (Error "a and b must be >= 1");
  let sigma = Workload.Generate.adversarial_ab ~a ~b ~rounds in
  let run =
    Analysis.Ratio.measure (Tree.Build.two_nodes ())
      ~policy:(Oat.Ab_policy.policy ~a ~b)
      sigma
  in
  let predicted =
    float_of_int ((2 * a) + b + 1) /. float_of_int (min (2 * a) (min b 3))
  in
  Printf.printf "(a,b) = (%d,%d), %d rounds\n" a b rounds;
  Printf.printf "online cost:        %d\n" run.Analysis.Ratio.online_cost;
  Printf.printf "offline lease OPT:  %d\n" run.Analysis.Ratio.opt_lease_cost;
  Printf.printf "measured ratio:     %.4f\n" (Analysis.Ratio.vs_opt_lease run);
  Printf.printf "predicted asymptote (2a+b+1)/min(2a,b,3): %.4f\n" predicted

let adversary_cmd =
  let doc = "Run the Theorem 3 adversary against an (a,b)-algorithm." in
  let a_arg = Arg.(value & opt int 1 & info [ "a" ] ~docv:"A" ~doc:"Combine threshold.") in
  let b_arg = Arg.(value & opt int 2 & info [ "b" ] ~docv:"B" ~doc:"Write budget.") in
  let rounds_arg =
    count_arg "rounds" ~default:500 ~docv:"ROUNDS" ~doc:"Adversary rounds."
  in
  Cmd.v (Cmd.info "adversary" ~doc) Term.(const adversary $ a_arg $ b_arg $ rounds_arg)

(* ---- sweep ---- *)

let sweep seed tree_kind n requests =
  let tree = or_die (build_tree tree_kind n seed) in
  Printf.printf "read-fraction sweep on %s (n=%d), %d requests per point\n"
    tree_kind (Tree.n_nodes tree) requests;
  Printf.printf "%8s" "p(read)";
  List.iter
    (fun (name, _) -> Printf.printf "  %14s" name)
    Baselines.Algorithm.all_static_and_adaptive;
  print_newline ();
  List.iter
    (fun p ->
      Printf.printf "%8.2f" p;
      List.iter
        (fun (_, make) ->
          let sigma =
            mixed tree ~requests ~read_fraction:p
              (seed + int_of_float (p *. 100.0))
          in
          Printf.printf "  %14d" (Baselines.Algorithm.run (make tree) sigma))
        Baselines.Algorithm.all_static_and_adaptive;
      print_newline ())
    [ 0.05; 0.2; 0.35; 0.5; 0.65; 0.8; 0.95 ]

let sweep_cmd =
  let doc = "Sweep the read fraction across static and adaptive strategies." in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(const sweep $ seed_arg $ tree_arg $ nodes_arg $ requests_arg)

(* ---- record / replay ---- *)

let record seed tree_kind n requests read_fraction out =
  let tree = or_die (build_tree tree_kind n seed) in
  let sigma = mixed tree ~requests ~read_fraction seed in
  or_die (Workload.Trace_io.save out sigma);
  Printf.printf "wrote %d requests to %s (tree %s, n=%d, seed %d)\n"
    (List.length sigma) out tree_kind n seed

let record_cmd =
  let doc = "Generate a workload and save it as a replayable trace file." in
  let out_arg =
    Arg.(value & opt string "workload.trace"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(
      const record $ seed_arg $ tree_arg $ nodes_arg $ requests_arg
      $ read_fraction_arg $ out_arg)

let replay file seed tree_kind n policy =
  let tree = or_die (build_tree tree_kind n seed) in
  let sigma =
    match Workload.Trace_io.load file with
    | Ok sigma -> sigma
    | Error e -> or_die (Error e)
  in
  List.iter
    (fun (q : float Oat.Request.t) ->
      if q.node >= Tree.n_nodes tree then
        or_die
          (Error
             (Printf.sprintf "trace names node %d but the tree has %d nodes"
                q.node (Tree.n_nodes tree))))
    sigma;
  let algo = or_die (build_algo policy tree) in
  let cost = Baselines.Algorithm.run algo sigma in
  let opt = Offline.Opt_lease.total tree sigma in
  Printf.printf "replayed %d requests from %s\n" (List.length sigma) file;
  Printf.printf "algorithm:         %s\n" algo.Baselines.Algorithm.name;
  Printf.printf "messages:          %d\n" cost;
  Printf.printf "offline lease OPT: %d  (ratio %.3f)\n" opt
    (if opt > 0 then float_of_int cost /. float_of_int opt else 1.0)

let replay_cmd =
  let doc = "Replay a recorded trace under a chosen algorithm." in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(const replay $ file_arg $ seed_arg $ tree_arg $ nodes_arg $ policy_arg)

(* ---- dot ---- *)

let dot seed tree_kind n requests read_fraction =
  let module M = Oat.Mechanism.Make (Agg.Ops.Sum) in
  let tree = or_die (build_tree tree_kind n seed) in
  let sigma = mixed tree ~requests ~read_fraction seed in
  let sys = M.create tree ~policy:Oat.Rww.policy in
  ignore (M.run_sequential sys sigma);
  print_string
    (Analysis.Dot.lease_graph tree ~granted:(fun u v -> M.granted sys u v))

let dot_cmd =
  let doc =
    "Run a workload under RWW and print the final lease graph as Graphviz DOT."
  in
  Cmd.v
    (Cmd.info "dot" ~doc)
    Term.(
      const dot $ seed_arg $ tree_arg $ nodes_arg $ requests_arg
      $ read_fraction_arg)

(* ---- latency ---- *)

let latency seed tree_kind n requests read_fraction =
  let tree = or_die (build_tree tree_kind n seed) in
  let sigma = mixed tree ~requests ~read_fraction seed in
  Printf.printf
    "combine latency under unit hop latency (%s, n=%d, p(read)=%.2f):\n"
    tree_kind (Tree.n_nodes tree) read_fraction;
  List.iter
    (fun (name, policy) ->
      let r = Analysis.Latency.run tree ~policy sigma in
      let s = Analysis.Latency.summary r in
      Printf.printf
        "  %-22s mean=%6.2f p95=%6.2f max=%6.2f  (%d messages)\n" name
        s.Analysis.Stats.mean s.Analysis.Stats.p95 s.Analysis.Stats.max
        r.Analysis.Latency.messages)
    [
      ("rww", Oat.Rww.policy);
      ("always (astrolabe)", Oat.Ab_policy.always_lease);
      ("never (mds-2)", Oat.Ab_policy.never_lease);
    ]

let latency_cmd =
  let doc = "Measure combine latency under virtual time for each strategy." in
  Cmd.v
    (Cmd.info "latency" ~doc)
    Term.(
      const latency $ seed_arg $ tree_arg $ nodes_arg $ requests_arg
      $ read_fraction_arg)

(* ---- profile ---- *)

let profile seed tree_kind n requests read_fraction policy_spec =
  let tree = or_die (build_tree tree_kind n seed) in
  let policy = or_die (build_lease_policy policy_spec) in
  let sigma = mixed tree ~requests ~read_fraction seed in
  let prof = Analysis.Profile.run tree ~policy sigma in
  Printf.printf "per-request message costs (%s on %s, n=%d):\n"
    prof.Analysis.Profile.policy tree_kind (Tree.n_nodes tree);
  Format.printf "  combines: %a@." Analysis.Stats.pp_summary
    (Analysis.Profile.combine_summary prof);
  Format.printf "  writes:   %a@." Analysis.Stats.pp_summary
    (Analysis.Profile.write_summary prof);
  print_endline "  combine histogram (cost: count):";
  List.iter
    (fun (cost, count) -> Printf.printf "  %6d: %d\n" cost count)
    (Analysis.Profile.histogram prof.Analysis.Profile.combine_costs)

let profile_cmd =
  let doc = "Print the distribution of per-request message costs." in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const profile $ seed_arg $ tree_arg $ nodes_arg $ requests_arg
      $ read_fraction_arg $ policy_arg)

(* ---- tables ---- *)

(* Prints only the tables; a deviating shape is reported on stderr and
   fails the command. *)
let tables only =
  let open Experiments in
  let entries =
    match only with
    | None -> all
    | Some id -> (
      let key = String.lowercase_ascii id in
      match List.filter (fun e -> e.id = key) all with
      | [] ->
        or_die
          (Error
             (Printf.sprintf "unknown experiment %S (use one of %s)" id
                (String.concat ", " (List.map (fun e -> e.id) all))))
      | l -> l)
  in
  let deviations =
    List.filter_map
      (fun e ->
        let line, ok = e.run () in
        if ok then None else Some line)
      entries
  in
  List.iter (fun l -> prerr_endline ("oat: shape deviates: " ^ l)) deviations;
  if deviations <> [] then exit 1

let tables_cmd =
  let doc = "Regenerate experiment tables (see EXPERIMENTS.md)." in
  let only_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"EXP" ~doc:"Run a single experiment (e.g. e4).")
  in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const tables $ only_arg)

let () =
  let doc = "Online aggregation over trees (IPPS 2007) — simulator and analysis" in
  let info = Cmd.info "oat" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd;
            metrics_cmd;
            lp_cmd;
            adversary_cmd;
            sweep_cmd;
            record_cmd;
            replay_cmd;
            dot_cmd;
            latency_cmd;
            profile_cmd;
            tables_cmd;
          ]))
