(* The per-figure/per-theorem experiments of EXPERIMENTS.md.  Each
   function prints a table reproducing one artifact of the paper and
   returns a scalar headline, which the registry at the end of this
   file turns into a summary line and a verdict. *)

module Sm = Prng.Splitmix
module M = Oat.Mechanism.Make (Agg.Ops.Sum)
module T = Analysis.Table
module Cm = Offline.Cost_model
module G = Workload.Generate

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* E1: Figure 2 — the per-edge cost table, measured on the wire.       *)

(* A policy that grants eagerly and releases at the first opportunity:
   needed to exhibit the noop-release row of Figure 2, which RWW never
   produces (Lemma 4.1). *)
let eager_break_policy ~node_id:_ ~nbrs:_ =
  {
    Oat.Policy.name = "eager-break";
    on_combine = (fun _ -> ());
    on_write = (fun _ -> ());
    probe_rcvd = (fun _ ~from:_ -> ());
    response_rcvd = (fun _ ~flag:_ ~from:_ -> ());
    update_rcvd = (fun _ ~from:_ -> ());
    release_rcvd = (fun _ ~from:_ -> ());
    set_lease = (fun _ ~target:_ -> true);
    break_lease = (fun _ ~target:_ -> true);
    release_policy = (fun _ ~target:_ -> ());
  }

type e1_row = {
  before : bool;
  req : Cm.req;
  after : bool;
  paper_cost : int;
  scenario : unit -> int * bool;  (* measured cost on the focal pair, lease after *)
}

let e1_rows () =
  let two () = M.create (Tree.Build.two_nodes ()) ~policy:Oat.Rww.policy in
  let never () =
    M.create (Tree.Build.two_nodes ()) ~policy:Oat.Ab_policy.never_lease
  in
  let path3 policy = M.create (Tree.Build.path 3) ~policy in
  let measure sys ~pair:(u, v) f =
    M.reset_message_counters sys;
    f ();
    (M.cost_between sys u v, M.granted sys u v)
  in
  [
    {
      before = false;
      req = Cm.R;
      after = false;
      paper_cost = 2;
      scenario =
        (fun () ->
          let sys = never () in
          measure sys ~pair:(0, 1) (fun () -> ignore (M.combine_sync sys ~node:1)));
    };
    {
      before = false;
      req = Cm.R;
      after = true;
      paper_cost = 2;
      scenario =
        (fun () ->
          let sys = two () in
          measure sys ~pair:(0, 1) (fun () -> ignore (M.combine_sync sys ~node:1)));
    };
    {
      before = false;
      req = Cm.W;
      after = false;
      paper_cost = 0;
      scenario =
        (fun () ->
          let sys = two () in
          measure sys ~pair:(0, 1) (fun () -> M.write_sync sys ~node:0 1.0));
    };
    {
      before = false;
      req = Cm.N;
      after = false;
      paper_cost = 0;
      scenario =
        (fun () ->
          (* a write at node 2 is a noop for the unleased pair (0,1) *)
          let sys = path3 Oat.Rww.policy in
          measure sys ~pair:(0, 1) (fun () -> M.write_sync sys ~node:2 1.0));
    };
    {
      before = true;
      req = Cm.R;
      after = true;
      paper_cost = 0;
      scenario =
        (fun () ->
          let sys = two () in
          ignore (M.combine_sync sys ~node:1);
          measure sys ~pair:(0, 1) (fun () -> ignore (M.combine_sync sys ~node:1)));
    };
    {
      before = true;
      req = Cm.W;
      after = false;
      paper_cost = 2;
      scenario =
        (fun () ->
          let sys = two () in
          ignore (M.combine_sync sys ~node:1);
          M.write_sync sys ~node:0 1.0;
          measure sys ~pair:(0, 1) (fun () -> M.write_sync sys ~node:0 2.0));
    };
    {
      before = true;
      req = Cm.W;
      after = true;
      paper_cost = 1;
      scenario =
        (fun () ->
          let sys = two () in
          ignore (M.combine_sync sys ~node:1);
          measure sys ~pair:(0, 1) (fun () -> M.write_sync sys ~node:0 1.0));
    };
    {
      before = true;
      req = Cm.N;
      after = false;
      paper_cost = 1;
      scenario =
        (fun () ->
          (* eager policy: a write at node 2 (noop for pair (0,1)) gives
             node 1 the opportunity to release its lease from 0 *)
          let sys = path3 eager_break_policy in
          ignore (M.combine_sync sys ~node:1);
          measure sys ~pair:(0, 1) (fun () -> M.write_sync sys ~node:2 1.0));
    };
    {
      before = true;
      req = Cm.N;
      after = true;
      paper_cost = 0;
      scenario =
        (fun () ->
          let sys = path3 Oat.Rww.policy in
          ignore (M.combine_sync sys ~node:1);
          measure sys ~pair:(0, 1) (fun () -> M.write_sync sys ~node:2 1.0));
    };
  ]

let e1_figure2 () =
  section "E1. Figure 2: per-edge message costs of a lease-based algorithm";
  Printf.printf
    "Each row drives a live system into the row's (lease state, request)\n\
     configuration and counts actual messages on the focal ordered pair.\n";
  let t =
    T.create
      ~columns:
        [
          ("granted before", T.Left);
          ("request", T.Left);
          ("granted after", T.Left);
          ("paper cost", T.Right);
          ("measured", T.Right);
          ("match", T.Left);
        ]
  in
  let mismatches = ref 0 in
  List.iter
    (fun row ->
      let measured, lease_after = row.scenario () in
      let ok = measured = row.paper_cost && lease_after = row.after in
      if not ok then incr mismatches;
      T.add_row t
        [
          string_of_bool row.before;
          Cm.req_to_string row.req;
          string_of_bool row.after;
          T.fint row.paper_cost;
          T.fint measured;
          (if ok then "yes" else "NO");
        ])
    (e1_rows ());
  T.print t;
  Printf.printf "mismatching rows: %d / 9\n" !mismatches;
  !mismatches

(* ------------------------------------------------------------------ *)
(* E2: Figure 4 — the product state diagram.                           *)

let e2_figure4 () =
  section "E2. Figure 4: (OPT, RWW) product transition system";
  let t =
    T.create
      ~columns:
        [
          ("from", T.Left);
          ("request", T.Left);
          ("to", T.Left);
          ("RWW cost", T.Right);
          ("OPT cost", T.Right);
        ]
  in
  List.iter
    (fun (tr : Lp.Transition_system.transition) ->
      T.add_row t
        [
          Printf.sprintf "S(%d,%d)" tr.source.opt tr.source.rww;
          Cm.req_to_string tr.req;
          Printf.sprintf "S(%d,%d)" tr.target.opt tr.target.rww;
          T.fint tr.rww_cost;
          T.fint tr.opt_cost;
        ])
    Lp.Transition_system.transitions;
  T.print t;
  let n = List.length Lp.Transition_system.transitions in
  Printf.printf
    "%d non-trivial transitions (paper's Figure 5 has 21 inequalities)\n" n;
  n

(* ------------------------------------------------------------------ *)
(* E3: Figure 5 — the linear program.                                  *)

let e3_figure5 () =
  section "E3. Figure 5: linear program for the competitive ratio";
  Printf.printf "literal rows = machine-derived rows: %b\n"
    (Lp.Fig5.rows_coincide ());
  (match Lp.Fig5.solve () with
  | Error e -> Format.printf "LP failed: %a@." Lp.Simplex.pp_error e
  | Ok { c; phi } ->
    let t =
      T.create
        ~columns:[ ("quantity", T.Left); ("paper", T.Right); ("simplex", T.Right) ]
    in
    T.add_row t [ "c (competitive factor)"; "5/2"; T.ffloat ~decimals:4 c ];
    List.iter
      (fun ((st : Lp.Transition_system.state), value) ->
        let paper =
          Lp.Fig5.paper_solution.(Lp.Fig5.var_index (`Phi st))
        in
        T.add_row t
          [
            Printf.sprintf "Phi(%d,%d)" st.opt st.rww;
            T.ffloat ~decimals:2 paper;
            T.ffloat ~decimals:4 value;
          ])
      phi;
    T.print t;
    Printf.printf
      "(potentials need not be unique; only c* is — the paper's Phi is one\n\
      \ feasible certificate, checked below)\n");
  Printf.printf "paper's (c, Phi) feasible for all 21 rows: %b\n"
    (Lp.Fig5.paper_solution_feasible ());
  (* Tightness: capping c below 5/2 must be infeasible. *)
  let p = Lp.Fig5.problem Lp.Fig5.literal_rows in
  let cap = Array.make (Array.length p.Lp.Simplex.objective) 0.0 in
  cap.(Lp.Fig5.var_index `C) <- 1.0;
  let capped =
    { p with Lp.Simplex.constraints = (cap, 2.4999) :: p.Lp.Simplex.constraints }
  in
  let tight =
    match Lp.Simplex.solve capped with Error Lp.Simplex.Infeasible -> true | _ -> false
  in
  Printf.printf "c <= 2.4999 infeasible (5/2 is optimal): %b\n" tight;
  match Lp.Fig5.solve () with Ok { c; _ } -> c | Error _ -> nan

(* ------------------------------------------------------------------ *)
(* E4/E5: Theorems 1 and 2 — competitive ratios on real runs.          *)

let e4_trees rng =
  [
    ("two-node", Tree.Build.two_nodes ());
    ("path-8", Tree.Build.path 8);
    ("star-9", Tree.Build.star 9);
    ("binary-15", Tree.Build.binary 15);
    ("caterpillar-3x3", Tree.Build.caterpillar ~spine:3 ~legs:3);
    ("random-16", Tree.Build.random rng 16);
  ]

let e4_workloads tree rng n =
  [
    ("mixed p=.10", G.mixed { G.default_spec with n_requests = n; read_fraction = 0.1 } tree rng);
    ("mixed p=.25", G.mixed { G.default_spec with n_requests = n; read_fraction = 0.25 } tree rng);
    ("mixed p=.50", G.mixed { G.default_spec with n_requests = n; read_fraction = 0.5 } tree rng);
    ("mixed p=.75", G.mixed { G.default_spec with n_requests = n; read_fraction = 0.75 } tree rng);
    ("mixed p=.90", G.mixed { G.default_spec with n_requests = n; read_fraction = 0.9 } tree rng);
    ("hotspot", G.hotspot tree rng ~n);
    ("phased", G.phased tree rng ~n ~phase_len:(max 1 (n / 8)));
    ("migrating", G.migrating tree rng ~n ~spot_moves:8);
  ]

let e4_theorem1 ?(n = 2000) () =
  section "E4. Theorem 1: RWW vs offline lease-based OPT (bound: 5/2)";
  let rng = Sm.create 42 in
  let t =
    T.create
      ~columns:
        [
          ("tree", T.Left);
          ("workload", T.Left);
          ("RWW msgs", T.Right);
          ("OPT msgs", T.Right);
          ("ratio", T.Right);
        ]
  in
  let worst = ref 0.0 in
  List.iter
    (fun (tname, tree) ->
      List.iter
        (fun (wname, sigma) ->
          let run = Analysis.Ratio.measure tree ~policy:Oat.Rww.policy sigma in
          let r = Analysis.Ratio.vs_opt_lease run in
          if r > !worst then worst := r;
          T.add_row t
            [
              tname;
              wname;
              T.fint run.Analysis.Ratio.online_cost;
              T.fint run.Analysis.Ratio.opt_lease_cost;
              T.fratio r;
            ])
        (e4_workloads tree rng n);
      T.add_separator t)
    (e4_trees rng);
  (* The tight instance. *)
  let sigma = G.rww_worst_case ~rounds:(n / 3) in
  let run =
    Analysis.Ratio.measure (Tree.Build.two_nodes ()) ~policy:Oat.Rww.policy sigma
  in
  let r = Analysis.Ratio.vs_opt_lease run in
  if r > !worst then worst := r;
  T.add_row t
    [
      "two-node";
      "adversarial RWW";
      T.fint run.Analysis.Ratio.online_cost;
      T.fint run.Analysis.Ratio.opt_lease_cost;
      T.fratio r;
    ];
  T.print t;
  Printf.printf "max ratio observed: %.3f  (Theorem 1 bound: 2.500) -> %s\n"
    !worst
    (if !worst <= 2.5 +. 1e-9 then "HOLDS" else "VIOLATED");
  !worst

let e5_theorem2 ?(n = 2000) () =
  section "E5. Theorem 2: RWW vs nice lower bound (bound: 5)";
  Printf.printf
    "The nice bound counts completed write-to-combine epochs per ordered\n\
     pair; the trailing epoch is not counted, so the guarantee is\n\
     cost <= 5*bound + 5*pairs.\n";
  let rng = Sm.create 43 in
  let t =
    T.create
      ~columns:
        [
          ("tree", T.Left);
          ("workload", T.Left);
          ("RWW msgs", T.Right);
          ("nice bound", T.Right);
          ("ratio", T.Right);
          ("within bound", T.Left);
        ]
  in
  let worst = ref 0.0 in
  let all_ok = ref true in
  List.iter
    (fun (tname, tree) ->
      let pairs = List.length (Tree.ordered_pairs tree) in
      List.iter
        (fun (wname, sigma) ->
          let run = Analysis.Ratio.measure tree ~policy:Oat.Rww.policy sigma in
          let r = Analysis.Ratio.vs_nice run in
          let ok =
            run.Analysis.Ratio.online_cost
            <= (5 * run.Analysis.Ratio.nice_cost) + (5 * pairs)
          in
          if not ok then all_ok := false;
          if r > !worst && r < Float.infinity then worst := r;
          T.add_row t
            [
              tname;
              wname;
              T.fint run.Analysis.Ratio.online_cost;
              T.fint run.Analysis.Ratio.nice_cost;
              (if r = Float.infinity then "inf" else T.fratio r);
              (if ok then "yes" else "NO");
            ])
        (e4_workloads tree rng n);
      T.add_separator t)
    (e4_trees rng);
  T.print t;
  Printf.printf "Theorem 2 bound %s on every run\n"
    (if !all_ok then "HOLDS" else "VIOLATED");
  (!worst, !all_ok)

(* ------------------------------------------------------------------ *)
(* E6: Theorem 3 — the adversarial lower bound for (a,b)-algorithms.   *)

let e6_theorem3 ?(rounds = 300) () =
  section "E6. Theorem 3: adversarial ratio of (a,b)-algorithms (lower bound: 5/2)";
  Printf.printf
    "Each (a,b)-algorithm runs against its own adversary (a combines at v,\n\
     b writes at u, repeated) on the 2-node tree.  Predicted asymptotic\n\
     ratio: (2a+b+1)/min(2a, b, 3).\n";
  let t =
    T.create
      ~columns:
        [
          ("a", T.Right);
          ("b", T.Right);
          ("online", T.Right);
          ("OPT", T.Right);
          ("measured", T.Right);
          ("predicted", T.Right);
        ]
  in
  let best = ref (Float.infinity, (0, 0)) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let sigma = G.adversarial_ab ~a ~b ~rounds in
          let run =
            Analysis.Ratio.measure (Tree.Build.two_nodes ())
              ~policy:(Oat.Ab_policy.policy ~a ~b)
              sigma
          in
          let r = Analysis.Ratio.vs_opt_lease run in
          let predicted =
            float_of_int ((2 * a) + b + 1)
            /. float_of_int (min (2 * a) (min b 3))
          in
          if r < fst !best then best := (r, (a, b));
          T.add_row t
            [
              T.fint a;
              T.fint b;
              T.fint run.Analysis.Ratio.online_cost;
              T.fint run.Analysis.Ratio.opt_lease_cost;
              T.fratio r;
              T.fratio predicted;
            ])
        [ 1; 2; 3; 4 ];
      T.add_separator t)
    [ 1; 2; 3; 4 ];
  T.print t;
  let r, (a, b) = !best in
  Printf.printf
    "best (a,b) = (%d,%d) at ratio %.3f — the minimum over the class is\n\
     achieved by RWW's (1,2) and equals the 5/2 bound (Theorem 3)\n"
    a b r;
  r

(* ------------------------------------------------------------------ *)
(* E7: Section 1 motivation — static strategies vs RWW across regimes. *)

let e7_motivation ?(n = 3000) () =
  section "E7. Motivation: message cost vs read fraction (static vs adaptive)";
  let tree = Tree.Build.kary ~k:3 40 in
  let fractions = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
  let algos = Baselines.Algorithm.all_static_and_adaptive in
  let t =
    T.create
      ~columns:
        (("p(read)", T.Right)
        :: List.map (fun (name, _) -> (name, T.Right)) algos
        @ [ ("best static", T.Left) ])
  in
  let rww_never_worst = ref true in
  List.iter
    (fun p ->
      let sigma =
        G.mixed
          { G.default_spec with n_requests = n; read_fraction = p }
          tree (Sm.create (int_of_float (p *. 1000.0) + 7))
      in
      let costs =
        List.map
          (fun (name, make) -> (name, Baselines.Algorithm.run (make tree) sigma))
          algos
      in
      let astro = List.assoc "astrolabe" costs
      and mds = List.assoc "mds-2" costs
      and rww = List.assoc "rww" costs in
      (* Allow the one-time lease warm-up (a few probe rounds), which
         dominates only at the degenerate all-read/all-write corners
         where the matching static strategy sends nothing at all. *)
      let warmup = 8 * (Tree.n_nodes tree - 1) in
      if rww > (3 * min astro mds) + warmup then rww_never_worst := false;
      T.add_row t
        (T.ffloat ~decimals:1 p
        :: List.map (fun (_, c) -> T.fint c) costs
        @ [ (if astro <= mds then "astrolabe" else "mds-2") ]))
    fractions;
  T.print t;
  Printf.printf
    "shape check: astrolabe wins read-heavy, mds-2 wins write-heavy, and\n\
     RWW stays within 3x of the better static strategy (plus a one-time\n\
     lease warm-up) at every point: %b\n"
    !rww_never_worst;
  if !rww_never_worst then 1 else 0

(* ------------------------------------------------------------------ *)
(* E8: consistency — Lemma 3.12 and Theorem 4 at scale.                *)

let e8_consistency ?(runs = 20) () =
  section "E8. Consistency: strict (sequential) and causal (concurrent)";
  let rng = Sm.create 777 in
  let strict_violations = ref 0 in
  let causal_violations = ref 0 in
  let sum = (module Agg.Ops.Sum : Agg.Operator.S with type t = float) in
  for _ = 1 to runs do
    let tree = Tree.Build.random rng (2 + Sm.int rng 12) in
    let n = Tree.n_nodes tree in
    (* sequential + strict *)
    let sys = M.create tree ~policy:Oat.Rww.policy in
    let sigma =
      List.init 300 (fun i ->
          if Sm.bool rng then Oat.Request.write (Sm.int rng n) (float_of_int i)
          else Oat.Request.combine (Sm.int rng n))
    in
    let results = M.run_sequential sys sigma in
    strict_violations :=
      !strict_violations
      + List.length (Consistency.Strict.violations sum ~n_nodes:n results);
    (* concurrent + causal *)
    let sys = M.create ~ghost:true tree ~policy:Oat.Rww.policy in
    let requests =
      Array.init 80 (fun i ->
          let node = Sm.int rng n in
          if Sm.bool rng then fun () -> M.write sys ~node (float_of_int i)
          else fun () -> M.combine sys ~node (fun _ -> ()))
    in
    Simul.Engine.run_concurrent ~rng:(Sm.split rng) (M.network sys)
      ~handler:(M.handler sys) ~requests;
    let logs = Array.init n (fun u -> M.log sys u) in
    causal_violations :=
      !causal_violations
      + List.length (Consistency.Causal.check sum ~n_nodes:n ~logs)
  done;
  let t =
    T.create
      ~columns:[ ("check", T.Left); ("runs", T.Right); ("violations", T.Right) ]
  in
  T.add_row t
    [ "strict consistency (sequential, Lemma 3.12)"; T.fint runs;
      T.fint !strict_violations ];
  T.add_row t
    [ "causal consistency (concurrent, Theorem 4)"; T.fint runs;
      T.fint !causal_violations ];
  T.print t;
  !strict_violations + !causal_violations

(* ------------------------------------------------------------------ *)
(* E9: ablation — LP-certified competitive ratios across the (a,b)     *)
(* class, generalizing Figure 5 beyond RWW.                            *)

let e9_ab_certificates () =
  section "E9. Ablation: exact competitive ratios of (a,b)-algorithms (LP)";
  Printf.printf
    "For each (a,b)-algorithm the Figure 4/5 construction generalizes to\n\
     an (a+b)-state product machine; its LP optimum certifies an upper\n\
     bound on the competitive ratio, while the periodic adversary of\n\
     Theorem 3 gives a lower bound.  Where they meet, the exact ratio is\n\
     pinned.\n";
  let t =
    T.create
      ~columns:
        [
          ("a", T.Right);
          ("b", T.Right);
          ("LP upper bound", T.Right);
          ("adversary lower bound", T.Right);
          ("exact?", T.Left);
        ]
  in
  let best = ref (Float.infinity, (0, 0)) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          match Lp.Ab_machine.certified_ratio ~a ~b with
          | Error e ->
            T.add_row t
              [ T.fint a; T.fint b;
                Format.asprintf "%a" Lp.Simplex.pp_error e; "-"; "-" ]
          | Ok c ->
            let adv = Lp.Ab_machine.adversarial_asymptote ~a ~b in
            if c < fst !best then best := (c, (a, b));
            T.add_row t
              [
                T.fint a;
                T.fint b;
                T.fratio c;
                T.fratio adv;
                (if Float.abs (c -. adv) < 1e-6 then "yes" else "no (stronger adversary exists)");
              ])
        [ 1; 2; 3; 4 ];
      T.add_separator t)
    [ 1; 2; 3; 4 ];
  T.print t;
  let c, (a, b) = !best in
  Printf.printf
    "class minimum: (a,b) = (%d,%d) at c = %.3f — RWW's choice is optimal\n\
     within the class, and for a >= 3 the LP exposes adversaries stronger\n\
     than the periodic one (e.g. R R W repeated holds streak counters\n\
     below threshold forever while OPT keeps the lease at cost 1/round).\n"
    a b c;
  c

(* ------------------------------------------------------------------ *)
(* E10: ablation — how loose is the per-edge relaxation of OPT?        *)

let e10_coupling_gap () =
  section "E10. Ablation: per-edge OPT relaxation vs globally-coupled optimum";
  Printf.printf
    "The offline bound used by E4 relaxes Lemma 3.2's coupling between a\n\
     node's edges.  Here the exact coupled optimum is computed by DP over\n\
     all closed lease configurations (exhaustive, n <= %d) and compared.\n"
    Offline.Opt_coupled.max_nodes;
  let rng = Sm.create 314 in
  let t =
    T.create
      ~columns:
        [
          ("tree", T.Left);
          ("requests", T.Right);
          ("per-edge OPT", T.Right);
          ("coupled OPT", T.Right);
          ("gap", T.Right);
          ("RWW (upper)", T.Right);
        ]
  in
  let max_gap = ref 0 in
  List.iter
    (fun (name, tree) ->
      List.iter
        (fun len ->
          let n = Tree.n_nodes tree in
          let sigma =
            List.init len (fun i ->
                if Sm.bool rng then Oat.Request.write (Sm.int rng n) (float_of_int i)
                else Oat.Request.combine (Sm.int rng n))
          in
          let per_edge, coupled = Offline.Opt_coupled.gap tree sigma in
          let sys = M.create tree ~policy:Oat.Rww.policy in
          ignore (M.run_sequential sys sigma);
          let rww = M.message_total sys in
          if coupled - per_edge > !max_gap then max_gap := coupled - per_edge;
          T.add_row t
            [
              name;
              T.fint len;
              T.fint per_edge;
              T.fint coupled;
              T.fint (coupled - per_edge);
              T.fint rww;
            ])
        [ 30; 80 ])
    [
      ("two-node", Tree.Build.two_nodes ());
      ("path-4", Tree.Build.path 4);
      ("star-5", Tree.Build.star 5);
      ("binary-7", Tree.Build.binary 7);
      ("random-8", Tree.Build.random (Sm.create 55) 8);
    ];
  T.print t;
  Printf.printf
    "max gap observed: %d — the per-edge relaxation is empirically TIGHT:\n\
     the lease (w,u) that closure requires below (u,v) sees a superset of\n\
     (u,v)'s combines and a subset of its writes, so per-edge optima can\n\
     always be assembled into a closed global schedule.  The E4 ratios\n\
     therefore compare RWW against the exact lease-based optimum.\n"
    !max_gap;
  !max_gap

(* ------------------------------------------------------------------ *)
(* E11: latency — the other half of the Section 1 motivation.          *)

let e11_latency ?(n = 1500) () =
  section "E11. Latency: combine completion time under unit hop latency";
  Printf.printf
    "The paper's introduction also argues in terms of latency: a strategy\n\
     tuned for writes makes reads pay a full-tree round trip.  Under the\n\
     virtual clock (1 time unit per hop), combine latency is measured for\n\
     the lease-policy equivalents of each strategy.\n";
  let tree = Tree.Build.kary ~k:3 40 in
  let policies =
    [
      ("always (astrolabe-like)", Oat.Ab_policy.always_lease);
      ("never (mds-2-like)", Oat.Ab_policy.never_lease);
      ("rww", Oat.Rww.policy);
    ]
  in
  let t =
    T.create
      ~columns:
        [
          ("policy", T.Left);
          ("p(read)", T.Right);
          ("mean lat", T.Right);
          ("p95 lat", T.Right);
          ("max lat", T.Right);
          ("messages", T.Right);
        ]
  in
  let shape_ok = ref true in
  List.iter
    (fun p ->
      let sigma =
        G.mixed
          { G.default_spec with n_requests = n; read_fraction = p }
          tree
          (Sm.create (1000 + int_of_float (p *. 10.0)))
      in
      let results =
        List.map
          (fun (name, policy) -> (name, Analysis.Latency.run tree ~policy sigma))
          policies
      in
      List.iter
        (fun (name, r) ->
          let s = Analysis.Latency.summary r in
          T.add_row t
            [
              name;
              T.ffloat ~decimals:1 p;
              T.ffloat s.Analysis.Stats.mean;
              T.ffloat s.Analysis.Stats.p95;
              T.ffloat s.Analysis.Stats.max;
              T.fint r.Analysis.Latency.messages;
            ])
        results;
      T.add_separator t;
      (* shape: warm always-lease reads are instant; never-lease reads pay
         a deep round trip; RWW sits at or below never-lease. *)
      let mean name = (Analysis.Latency.summary (List.assoc name results)).Analysis.Stats.mean in
      if not (mean "always (astrolabe-like)" < 0.5) then shape_ok := false;
      if not (mean "never (mds-2-like)" > 2.0) then shape_ok := false;
      if not (mean "rww" <= mean "never (mds-2-like)" +. 1e-9) then shape_ok := false)
    [ 0.3; 0.6; 0.9 ];
  T.print t;
  Printf.printf
    "shape check (always ~ 0, never pays round trips, rww <= never): %b\n"
    !shape_ok;
  if !shape_ok then 1 else 0

(* ------------------------------------------------------------------ *)
(* E12: scaling — per-request cost as the tree grows.                  *)

let e12_scaling ?(requests = 1500) () =
  section "E12. Scaling: messages per request vs tree size (binary trees)";
  let t =
    T.create
      ~columns:
        [
          ("n", T.Right);
          ("astrolabe/req", T.Right);
          ("mds-2/req", T.Right);
          ("rww/req", T.Right);
          ("OPT bound/req", T.Right);
          ("rww/OPT", T.Right);
        ]
  in
  let shape_ok = ref true in
  List.iter
    (fun n ->
      let tree = Tree.Build.binary n in
      let sigma =
        G.mixed
          { G.default_spec with n_requests = requests; read_fraction = 0.5 }
          tree (Sm.create (9000 + n))
      in
      let per maker =
        float_of_int (Baselines.Algorithm.run (maker tree) sigma)
        /. float_of_int requests
      in
      let astro = per Baselines.Algorithm.astrolabe in
      let mds = per Baselines.Algorithm.mds2 in
      let rww = per Baselines.Algorithm.rww in
      let opt =
        float_of_int (Offline.Opt_lease.total tree sigma) /. float_of_int requests
      in
      if rww > 2.5 *. opt +. 1e-9 then shape_ok := false;
      if n >= 15 && not (rww < Float.min astro mds) then shape_ok := false;
      T.add_row t
        [
          T.fint n;
          T.ffloat astro;
          T.ffloat mds;
          T.ffloat rww;
          T.ffloat opt;
          T.fratio (rww /. opt);
        ])
    [ 7; 15; 31; 63; 127 ];
  T.print t;
  Printf.printf
    "shape check: static strategies grow linearly with n on mixed traffic;\n\
     RWW stays below both and within 5/2 of the offline bound: %b\n"
    !shape_ok;
  if !shape_ok then 1 else 0

(* ------------------------------------------------------------------ *)
(* E13: related work — time-based leases vs RWW's write-count leases.  *)

let e13_timed_leases ?(n = 1200) () =
  section "E13. Related work: time-based (Gray-Cheriton-style) leases vs RWW";
  Printf.printf
    "Time-based leases expire after a TTL of read inactivity; RWW reacts\n\
     to the write/read pattern itself.  Phased workload, unit hop latency,\n\
     one time unit between requests.\n";
  let tree = Tree.Build.kary ~k:3 30 in
  let sigma =
    G.phased tree (Sm.create 4242) ~n ~phase_len:(n / 8)
  in
  let t =
    T.create
      ~columns:
        [
          ("policy", T.Left);
          ("messages", T.Right);
          ("mean lat", T.Right);
          ("p95 lat", T.Right);
        ]
  in
  let runs =
    ("rww", Analysis.Latency.run ~inter_arrival:1.0 tree ~policy:Oat.Rww.policy sigma)
    :: List.map
         (fun ttl ->
           ( Printf.sprintf "timed ttl=%g" ttl,
             Analysis.Latency.run_timed ~inter_arrival:1.0 tree
               ~policy:(fun ~now -> Oat.Timed_policy.policy ~now ~ttl)
               sigma ))
         [ 5.0; 20.0; 100.0; 1000.0 ]
  in
  List.iter
    (fun (name, r) ->
      let s = Analysis.Latency.summary r in
      T.add_row t
        [
          name;
          T.fint r.Analysis.Latency.messages;
          T.ffloat s.Analysis.Stats.mean;
          T.ffloat s.Analysis.Stats.p95;
        ])
    runs;
  T.print t;
  let cost name = (List.assoc name runs).Analysis.Latency.messages in
  let rww = cost "rww" in
  let best_timed =
    List.fold_left min max_int
      (List.filter_map
         (fun (name, r) ->
           if name = "rww" then None else Some r.Analysis.Latency.messages)
         runs)
  in
  Printf.printf
    "RWW: %d messages; best TTL (tuned with hindsight): %d.  RWW is\n\
     within %.2fx of the best statically tuned TTL without any tuning\n\
     knob — the adaptivity argument of the paper's introduction, applied\n\
     to the related-work lease family.\n"
    rww best_timed
    (float_of_int rww /. float_of_int (max 1 best_timed));
  if rww <= 2 * best_timed then 1 else 0

(* ------------------------------------------------------------------ *)
(* E14: per-request cost distribution under RWW.                       *)

let e14_cost_profile ?(n = 3000) () =
  section "E14. Per-request message-cost distribution (RWW, binary-31)";
  Printf.printf
    "The competitive bound is about totals; this table shows how the cost\n\
     is distributed over individual requests (combines amortize to near\n\
     zero as leases warm; writes pay for the lease structure they cross).\n";
  let tree = Tree.Build.binary 31 in
  let t =
    T.create
      ~columns:
        [
          ("p(read)", T.Right);
          ("op", T.Left);
          ("mean", T.Right);
          ("p50", T.Right);
          ("p95", T.Right);
          ("max", T.Right);
        ]
  in
  let ok = ref true in
  let prev_combine = ref Float.infinity and prev_write = ref 0.0 in
  List.iter
    (fun p ->
      let sigma =
        G.mixed
          { G.default_spec with n_requests = n; read_fraction = p }
          tree
          (Sm.create (int_of_float (p *. 100.0) + 3))
      in
      let prof = Analysis.Profile.run tree ~policy:Oat.Rww.policy sigma in
      let row op (s : Analysis.Stats.summary) =
        T.add_row t
          [
            T.ffloat ~decimals:1 p;
            op;
            T.ffloat s.Analysis.Stats.mean;
            T.ffloat s.Analysis.Stats.p50;
            T.ffloat s.Analysis.Stats.p95;
            T.ffloat s.Analysis.Stats.max;
          ]
      in
      let cs = Analysis.Profile.combine_summary prof in
      let ws = Analysis.Profile.write_summary prof in
      row "combine" cs;
      row "write" ws;
      T.add_separator t;
      (* shape: as traffic gets more read-heavy, RWW shifts cost from
         combines (leases stay warm) onto writes (updates pushed). *)
      if cs.Analysis.Stats.mean > !prev_combine then ok := false;
      if ws.Analysis.Stats.mean < !prev_write then ok := false;
      prev_combine := cs.Analysis.Stats.mean;
      prev_write := ws.Analysis.Stats.mean)
    [ 0.2; 0.5; 0.8 ];
  T.print t;
  Printf.printf
    "shape check (combine cost falls and write cost rises with the read\n\
     fraction): %b\n"
    !ok;
  if !ok then 1 else 0

(* ------------------------------------------------------------------ *)
(* E15: SDIMS-style DHT trees — spreading aggregation load.            *)

let e15_dht_load_spread ?(n_attrs = 64) () =
  section "E15. DHT trees: per-attribute aggregation load spreading (SDIMS)";
  Printf.printf
    "SDIMS derives one aggregation tree per attribute from the DHT so the\n\
     roots (and traffic) spread over the machines.  Same workload over 64\n\
     attributes: one shared tree vs per-attribute Plaxton trees.\n";
  let n = 32 in
  let attrs = List.init n_attrs (fun i -> Printf.sprintf "attr-%02d" i) in
  (* The same traffic on a fresh front-end; returns per-machine load. *)
  let module Mu = Oat.Multi.Make (Agg.Ops.Sum) in
  let load tree_for =
    let sys = Mu.create tree_for in
    let rng = Sm.create 707 in
    List.iter
      (fun attr ->
        for i = 1 to 8 do
          Mu.write sys ~attr ~node:(Sm.int rng n) (float_of_int i)
        done;
        for _ = 1 to 4 do
          ignore (Mu.combine sys ~attr ~node:(Sm.int rng n))
        done)
      attrs;
    Mu.messages_per_node sys ~n
  in
  (* Shared tree: every attribute aggregates over the same k-ary tree. *)
  let shared_load = load (Fun.const (Tree.Build.kary ~k:3 n)) in
  (* DHT trees: one Plaxton tree per attribute. *)
  let dht = Dht.Plaxton.create (Sm.create 606) ~n ~bits:12 in
  let dht_load = load (Dht.Plaxton.tree_for_attribute dht) in
  let stats load =
    let l = Array.to_list (Array.map float_of_int load) in
    (Analysis.Stats.maximum l, Analysis.Stats.mean l)
  in
  let shared_max, shared_mean = stats shared_load in
  let dht_max, dht_mean = stats dht_load in
  let roots =
    List.sort_uniq compare
      (List.map
         (fun attr ->
           Dht.Plaxton.root_for_key dht
             ~key:(Dht.Plaxton.key_of_attribute dht attr))
         attrs)
  in
  let t =
    T.create
      ~columns:
        [
          ("configuration", T.Left);
          ("total msgs", T.Right);
          ("mean load/machine", T.Right);
          ("max load/machine", T.Right);
          ("max/mean", T.Right);
        ]
  in
  T.add_row t
    [
      "one shared tree";
      T.fint (Array.fold_left ( + ) 0 shared_load);
      T.ffloat shared_mean;
      T.ffloat shared_max;
      T.fratio (shared_max /. Float.max 1.0 shared_mean);
    ];
  T.add_row t
    [
      Printf.sprintf "DHT trees (%d roots)" (List.length roots);
      T.fint (Array.fold_left ( + ) 0 dht_load);
      T.ffloat dht_mean;
      T.ffloat dht_max;
      T.fratio (dht_max /. Float.max 1.0 dht_mean);
    ];
  T.print t;
  let balanced =
    dht_max /. Float.max 1.0 dht_mean < shared_max /. Float.max 1.0 shared_mean
  in
  Printf.printf
    "shape check (DHT trees flatten the per-machine load profile): %b\n"
    balanced;
  if balanced then 1 else 0

(* ------------------------------------------------------------------ *)
(* E16: fault sweep — the price of restoring reliability.              *)

let e16_fault_sweep ?(requests = 150) () =
  section "E16. Fault sweep: wire cost and combine latency vs loss rate";
  Printf.printf
    "The mechanism's correctness precondition is reliable FIFO channels\n\
     (Section 3); Fault.Runner restores it over a lossy wire with\n\
     sequence numbers, cumulative acks and retransmission.  Logical\n\
     protocol cost is unchanged by loss — the wire pays instead.  Every\n\
     run is seeded, drained to quiescence and checked causally.\n\
     Reproduce any row with:\n\
     oat-cli simulate --faults drop=DROP --seed 2026 --tree TREE -n 15\n";
  let module R = Fault.Runner.Make (Agg.Ops.Sum) in
  let t =
    T.create
      ~columns:
        [
          ("tree", T.Left);
          ("drop", T.Right);
          ("logical", T.Right);
          ("physical", T.Right);
          ("retransmits", T.Right);
          ("exact", T.Right);
          ("partial", T.Right);
          ("combine lat", T.Right);
          ("causal", T.Left);
        ]
  in
  let ok = ref true in
  let rates = [ 0.0; 0.05; 0.1; 0.2 ] in
  List.iter
    (fun (name, tree) ->
      let sigma =
        G.mixed { G.default_spec with n_requests = requests } tree
          (Sm.create 2026)
      in
      let outcomes =
        List.map
          (fun drop ->
            let plan =
              Fault.Plan.create ~seed:2026 { Fault.Plan.none with drop }
            in
            let o = R.run ~plan ~tree ~policy:Oat.Rww.policy ~requests:sigma () in
            T.add_row t
              [
                name;
                T.ffloat ~decimals:2 drop;
                T.fint o.R.logical_msgs;
                T.fint o.R.physical_msgs;
                T.fint o.R.retransmits;
                T.fint o.R.exact;
                T.fint o.R.partial;
                T.ffloat o.R.mean_combine_latency;
                (if o.R.causal_violations = 0 then "ok" else "VIOLATED");
              ];
            if o.R.causal_violations > 0 then ok := false;
            o)
          rates
      in
      T.add_separator t;
      (* Shape: a lossless wire costs exactly one ack per data frame and
         never retransmits; loss only ever adds wire overhead on top of
         an unchanged logical cost. *)
      match outcomes with
      | free :: rest ->
        if free.R.retransmits <> 0 then ok := false;
        if free.R.physical_msgs <> 2 * free.R.logical_msgs then ok := false;
        let overhead (o : R.outcome) =
          float_of_int o.R.physical_msgs
          /. float_of_int (max 1 o.R.logical_msgs)
        in
        List.iter
          (fun o ->
            if o.R.retransmits = 0 then ok := false;
            if overhead o <= overhead free then ok := false;
            if o.R.mean_combine_latency < free.R.mean_combine_latency then
              ok := false)
          rest
      | [] -> ok := false)
    [
      ("line-15", Tree.Build.path 15);
      ("star-15", Tree.Build.star 15);
      ("binary-15", Tree.Build.binary 15);
    ];
  T.print t;
  Printf.printf
    "shape check (lossless wire = 2x logical and zero retransmits; loss\n\
     only adds wire overhead and combine latency, never causal damage): %b\n"
    !ok;
  if !ok then 1 else 0

(* ------------------------------------------------------------------ *)
(* E21: churn sweep — message cost and staleness vs churn rate.        *)

let e21_churn_sweep ?(requests = 150) () =
  section "E21. Churn sweep: message cost and staleness vs churn rate";
  Printf.printf
    "Membership churn synthesized against a Plaxton overlay (the SDIMS\n\
     substrate): Fault.Plan.synth_churn rolls the Tree.Dyn automaton\n\
     forward at one membership event per 1/rate time units, choosing\n\
     who churns by Dht.Plaxton.churn_order — the overlay's periphery\n\
     (shortest prefix match against the attribute key) churns first.\n\
     Each run drives departs and joins through the lease-safe handoff\n\
     (epoch-fenced, ghost history carried to the handoff neighbour),\n\
     then measures staleness as the ghost-log divergence left across\n\
     active edges and heals it with the Merkle anti-entropy pass.\n\
     Reproduce any row with:\n\
     oat-cli simulate --churn leave=..,join=.. --seed 2027 -n 31\n";
  let module R = Fault.Runner.Make (Agg.Ops.Sum) in
  let overlay = Dht.Plaxton.create (Sm.create 2027) ~n:31 ~bits:12 in
  let tree = Dht.Plaxton.tree_for_attribute overlay "load" in
  let key = Dht.Plaxton.key_of_attribute overlay "load" in
  let order = Dht.Plaxton.churn_order overlay ~key in
  let sigma =
    G.mixed { G.default_spec with n_requests = requests } tree (Sm.create 2027)
  in
  let horizon = 2.0 *. float_of_int requests in
  let t =
    T.create
      ~columns:
        [
          ("rate", T.Right);
          ("leaves", T.Right);
          ("joins", T.Right);
          ("issued", T.Right);
          ("skipped", T.Right);
          ("logical", T.Right);
          ("staleness", T.Right);
          ("healed", T.Right);
          ("shipped", T.Right);
          ("causal", T.Left);
        ]
  in
  let ok = ref true in
  List.iter
    (fun rate ->
      let churn =
        Fault.Plan.synth_churn ~seed:2027 ~tree ~order ~rate ~horizon
      in
      let plan =
        Fault.Plan.create ~seed:2027 { Fault.Plan.none with churn }
      in
      let o =
        R.run ~plan ~repair:true ~tree ~policy:Oat.Rww.policy ~requests:sigma ()
      in
      T.add_row t
        [
          T.ffloat ~decimals:2 rate;
          T.fint o.R.leaves;
          T.fint o.R.joins;
          T.fint o.R.issued;
          T.fint o.R.skipped;
          T.fint o.R.logical_msgs;
          T.fint o.R.divergence_before;
          T.fint o.R.divergence_after;
          T.fint o.R.repair_stats.Repair.writes_shipped;
          (if o.R.causal_violations = 0 then "ok" else "VIOLATED");
        ];
      (* Shape: the causal checker is green at every churn rate, the
         anti-entropy pass always converges, the zero-rate row has no
         membership events, and positive rates actually exercise the
         depart/join machinery.  (Staleness is nonzero even at rate 0:
         ghost frontiers advance only where lease traffic flows, so the
         divergence column's floor is the propagation lag of the leased
         protocol itself, and churn rides on top of it.) *)
      if o.R.causal_violations <> 0 then ok := false;
      if o.R.divergence_after <> 0 then ok := false;
      if rate = 0.0 && o.R.leaves + o.R.joins <> 0 then ok := false;
      if rate > 0.0 && o.R.leaves + o.R.joins = 0 then ok := false)
    [ 0.0; 0.02; 0.05; 0.1 ];
  T.print t;
  Printf.printf
    "shape check (causal at every rate, anti-entropy converges to zero\n\
     divergence after every heal, positive rates churn the membership): %b\n"
    !ok;
  if !ok then 1 else 0

(* ------------------------------------------------------------------ *)
(* The registry: every experiment with the verdict both harnesses gate
   on.  Summary values line up in column 38.                           *)

type entry = { id : string; run : unit -> string * bool }

let entry id label run =
  let run () =
    let value, ok = run () in
    (Printf.sprintf "%-37s%s" label value, ok)
  in
  { id; run }

let holds shape = ((if shape = 1 then "yes" else "NO"), shape = 1)

let all =
  [
    entry "e1" "E1 Figure 2 mismatching rows:" (fun () ->
        let m = e1_figure2 () in
        (Printf.sprintf "%d (expect 0)" m, m = 0));
    entry "e2" "E2 Figure 4 non-trivial transitions:" (fun () ->
        let t = e2_figure4 () in
        (Printf.sprintf "%d (expect 21)" t, t = 21));
    entry "e3" "E3 Figure 5 optimal c:" (fun () ->
        let c = e3_figure5 () in
        (Printf.sprintf "%.4f (expect 2.5)" c, Float.abs (c -. 2.5) < 1e-6));
    entry "e4" "E4 Theorem 1 max ratio:" (fun () ->
        let r = e4_theorem1 () in
        (Printf.sprintf "%.3f (bound 2.5)" r, r <= 2.5 +. 1e-9));
    (* the raw ratio is only near 5: the bound carries an additive
       constant, which the verdict includes *)
    entry "e5" "E5 Theorem 2 max ratio:" (fun () ->
        let r, ok = e5_theorem2 () in
        (Printf.sprintf "%.3f (bound ~5)" r, ok));
    entry "e6" "E6 Theorem 3 min adversarial ratio:" (fun () ->
        let r = e6_theorem3 () in
        (Printf.sprintf "%.3f (bound 2.5)" r, r >= 2.5 -. 0.05));
    entry "e7" "E7 adaptive-vs-static shape holds:" (fun () ->
        holds (e7_motivation ()));
    entry "e8" "E8 consistency violations:" (fun () ->
        let v = e8_consistency () in
        (Printf.sprintf "%d (expect 0)" v, v = 0));
    entry "e9" "E9 class-minimum certified ratio:" (fun () ->
        let r = e9_ab_certificates () in
        ( Printf.sprintf "%.3f (expect 2.5 at (1,2))" r,
          Float.abs (r -. 2.5) < 1e-6 ));
    entry "e10" "E10 per-edge vs coupled OPT gap:" (fun () ->
        let g = e10_coupling_gap () in
        (Printf.sprintf "%d (expect 0)" g, g = 0));
    entry "e11" "E11 latency ordering holds:" (fun () -> holds (e11_latency ()));
    entry "e12" "E12 scaling shape holds:" (fun () -> holds (e12_scaling ()));
    entry "e13" "E13 RWW within 2x of best TTL:" (fun () ->
        holds (e13_timed_leases ()));
    entry "e14" "E14 cost-distribution shape holds:" (fun () ->
        holds (e14_cost_profile ()));
    entry "e15" "E15 DHT load-spreading shape holds:" (fun () ->
        holds (e15_dht_load_spread ()));
    entry "e16" "E16 fault-sweep shape holds:" (fun () ->
        holds (e16_fault_sweep ()));
    entry "e21" "E21 churn-sweep shape holds:" (fun () ->
        holds (e21_churn_sweep ()));
  ]
