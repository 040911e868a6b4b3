(* Seeded, deterministic fault plans.  Every per-message decision is a
   stateless hash of (seed, stream, src, dst, attempt) fed through
   SplitMix64 — no shared generator state — so decisions are independent
   of scheduler interleaving and retransmission counts on other edges,
   and a (seed, spec, workload) triple reproduces byte for byte. *)

type crash = { node : int; at : float; down_for : float }

(* A flap is sugar for [fcount] identical crash windows spaced
   [fperiod] apart — the repeated-crash form of the same adversary. *)
type flap = {
  fnode : int;
  fat : float;
  fdown : float;
  fcount : int;
  fperiod : float;
}

type churn_kind = Leave | Join

type churn = { cnode : int; cat : float; ckind : churn_kind }

type spec = {
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_depth : int;
  delay : float;
  delay_max : int;
  crashes : crash list;
  flaps : flap list;
  churn : churn list;
  detached : int list;  (* initially outside the active tree *)
}

let none =
  {
    drop = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    reorder_depth = 3;
    delay = 0.0;
    delay_max = 4;
    crashes = [];
    flaps = [];
    churn = [];
    detached = [];
  }

let flap_windows f =
  List.init f.fcount (fun i ->
      {
        node = f.fnode;
        at = f.fat +. (float_of_int i *. f.fperiod);
        down_for = f.fdown;
      })

(* Every crash window the plan schedules: explicit crashes plus the
   expansion of each flap.  Drivers execute this list; [validate]'s
   overlap check runs over it, so flaps cannot smuggle in a crash
   pattern an explicit list could not express. *)
let crash_windows s = s.crashes @ List.concat_map flap_windows s.flaps

let request_spacing = 2.0

let validate s =
  let prob what p lim =
    if Float.is_nan p || p < 0.0 || p >= lim then
      Error (Printf.sprintf "%s: probability %g out of range" what p)
    else Ok ()
  in
  let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
  let* () = prob "drop" s.drop 1.0 in
  let* () = prob "dup" s.duplicate 1.0 in
  let* () = prob "reorder" s.reorder 1.0 in
  let* () = prob "delay" s.delay 1.0 in
  let* () =
    if s.reorder > 0.0 && s.reorder_depth < 1 then
      Error "reorder: depth must be >= 1"
    else Ok ()
  in
  let* () =
    if s.delay > 0.0 && s.delay_max < 1 then Error "delay: max must be >= 1"
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc c ->
        let* () = acc in
        if c.node < 0 then Error (Printf.sprintf "crash: node %d < 0" c.node)
        else if
          (not (Float.is_finite c.at))
          || (not (Float.is_finite c.down_for))
          || c.at < 0.0
        then Error "crash: times must be finite and non-negative"
        else if c.down_for <= 0.0 then Error "crash: downtime must be positive"
        else Ok ())
      (Ok ()) s.crashes
  in
  let* () =
    List.fold_left
      (fun acc f ->
        let* () = acc in
        if f.fnode < 0 then Error (Printf.sprintf "flap: node %d < 0" f.fnode)
        else if
          (not (Float.is_finite f.fat))
          || (not (Float.is_finite f.fdown))
          || (not (Float.is_finite f.fperiod))
          || f.fat < 0.0
        then Error "flap: times must be finite and non-negative"
        else if f.fdown <= 0.0 then Error "flap: downtime must be positive"
        else if f.fcount < 1 then Error "flap: count must be >= 1"
        else if f.fcount > 1 && f.fperiod <= 0.0 then
          Error "flap: period must be positive"
        else Ok ())
      (Ok ()) s.flaps
  in
  let* () =
    List.fold_left
      (fun acc c ->
        let* () = acc in
        if c.cnode < 0 then
          Error (Printf.sprintf "churn: node %d < 0" c.cnode)
        else if (not (Float.is_finite c.cat)) || c.cat < 0.0 then
          Error "churn: times must be finite and non-negative"
        else Ok ())
      (Ok ()) s.churn
  in
  let* () =
    let seen = Hashtbl.create 8 in
    List.fold_left
      (fun acc u ->
        let* () = acc in
        if u < 0 then Error (Printf.sprintf "detached: node %d < 0" u)
        else if Hashtbl.mem seen u then
          Error (Printf.sprintf "detached: node %d listed twice" u)
        else begin
          Hashtbl.add seen u ();
          Ok ()
        end)
      (Ok ()) s.detached
  in
  (* per-node crash intervals (explicit and flap-expanded) must not
     overlap: a node cannot crash again before it restarted *)
  let windows = crash_windows s in
  let by_node = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let l = try Hashtbl.find by_node c.node with Not_found -> [] in
      Hashtbl.replace by_node c.node ((c.at, c.at +. c.down_for) :: l))
    windows;
  let overlap = ref None in
  Hashtbl.iter
    (fun node l ->
      let l = List.sort compare l in
      let rec chk = function
        | (_, hi) :: ((lo, _) :: _ as rest) ->
          if lo < hi then overlap := Some node else chk rest
        | _ -> ()
      in
      chk l)
    by_node;
  match !overlap with
  | Some node ->
    Error (Printf.sprintf "crash: overlapping downtimes for node %d" node)
  | None ->
    (* Per-node membership timeline: churn events strictly ordered in
       time and alternating in kind (a node leaves only while attached,
       joins only while detached, starting from [detached]); crash
       windows must fall entirely inside attached periods — a detached
       node has no incarnation to crash, and a crashed node cannot run
       the depart handshake. *)
    let churn_by_node = Hashtbl.create 8 in
    List.iter
      (fun c ->
        let l =
          try Hashtbl.find churn_by_node c.cnode with Not_found -> []
        in
        Hashtbl.replace churn_by_node c.cnode (c :: l))
      s.churn;
    let err = ref None in
    let set_err m = if !err = None then err := Some m in
    let nodes_involved = Hashtbl.create 8 in
    Hashtbl.iter (fun u _ -> Hashtbl.replace nodes_involved u ()) churn_by_node;
    List.iter (fun u -> Hashtbl.replace nodes_involved u ()) s.detached;
    Hashtbl.iter
      (fun u () ->
        let evs =
          List.sort
            (fun a b -> compare a.cat b.cat)
            (try Hashtbl.find churn_by_node u with Not_found -> [])
        in
        let rec strict = function
          | a :: (b :: _ as rest) ->
            if b.cat <= a.cat then
              set_err
                (Printf.sprintf "churn: node %d has two events at time %g" u
                   b.cat)
            else strict rest
          | _ -> ()
        in
        strict evs;
        (* alternation, and the detached intervals it implies *)
        let init_attached = not (List.mem u s.detached) in
        let detached_ivals = ref [] in
        let attached = ref init_attached in
        let det_since = ref (if init_attached then nan else 0.0) in
        List.iter
          (fun c ->
            match c.ckind with
            | Leave ->
              if not !attached then
                set_err
                  (Printf.sprintf
                     "churn: node %d leaves at %g but is already detached" u
                     c.cat)
              else begin
                attached := false;
                det_since := c.cat
              end
            | Join ->
              if !attached then
                set_err
                  (Printf.sprintf
                     "churn: node %d joins at %g but is already attached" u
                     c.cat)
              else begin
                attached := true;
                detached_ivals := (!det_since, c.cat) :: !detached_ivals
              end)
          evs;
        if not !attached then
          detached_ivals := (!det_since, infinity) :: !detached_ivals;
        let wins =
          List.filter_map
            (fun c ->
              if c.node = u then Some (c.at, c.at +. c.down_for) else None)
            windows
        in
        List.iter
          (fun (a, b) ->
            List.iter
              (fun (l, r) ->
                if a < r && l < b then
                  set_err
                    (Printf.sprintf
                       "crash: node %d window [%g,%g) overlaps a detached \
                        period"
                       u a b))
              !detached_ivals)
          wins)
      nodes_involved;
    (match !err with Some m -> Error m | None -> Ok s)

(* ---- the timeline and the tree check ----------------------------- *)

type event = Crash of int | Restart of int | Leave of int | Join of int

(* Each crash window's crash and restart, then every churn event, stably
   sorted by time: at equal times crash windows come first, in
   [crash_windows] order, and churn events keep their spec order.  Both
   drivers consume this list, so they order co-timed events alike. *)
let timeline s =
  List.concat_map
    (fun c -> [ (c.at, Crash c.node); (c.at +. c.down_for, Restart c.node) ])
    (crash_windows s)
  @ List.map
      (fun c ->
        (c.cat, match c.ckind with Leave -> Leave c.cnode | Join -> Join c.cnode))
      s.churn
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)

let check tree s =
  let ( let* ) = Result.bind in
  let n = Tree.n_nodes tree in
  let outside what nodes =
    match List.find_opt (fun u -> u >= n) nodes with
    | Some u ->
      Error (Printf.sprintf "%s: node %d outside the tree (n=%d)" what u n)
    | None -> Ok ()
  in
  let* s = validate s in
  let* () = outside "crash" (List.map (fun c -> c.node) s.crashes) in
  let* () = outside "flap" (List.map (fun f -> f.fnode) s.flaps) in
  let* () = outside "churn" (List.map (fun c -> c.cnode) s.churn) in
  let* () = outside "detached" s.detached in
  let* dyn =
    match Tree.Dyn.create ~detached:s.detached tree with
    | dyn -> Ok dyn
    | exception Invalid_argument m -> Error ("detached: " ^ m)
  in
  (* Both drivers crash and restart before membership moves at equal
     times, and a restart's Hello has not reached the leaver at that
     instant, so a window covers both of its ends. *)
  let down h t =
    List.find_opt
      (fun w -> w.node = h && w.at <= t && t <= w.at +. w.down_for)
      (crash_windows s)
  in
  let replay acc (t, ev) =
    let* () = acc in
    let move u what legal =
      Result.map_error
        (Printf.sprintf "churn: node %d cannot %s at %g: %s" u what t)
        legal
    in
    match ev with
    | Crash _ | Restart _ -> Ok ()
    | Leave u ->
      move u "leave"
        (let* h = Tree.Dyn.can_detach dyn u in
         match down h t with
         | Some w ->
           Error
             (Printf.sprintf "handoff neighbour %d is down in [%g,%g]" h w.at
                (w.at +. w.down_for))
         | None -> Ok (ignore (Tree.Dyn.detach dyn u)))
    | Join u ->
      move u "join"
        (Result.map
           (fun _ -> ignore (Tree.Dyn.attach dyn u))
           (Tree.Dyn.can_attach dyn u))
  in
  Result.map (fun () -> s) (List.fold_left replay (Ok ()) (timeline s))

(* ---- spec parsing / printing ------------------------------------- *)

exception Bad of string

let float_field key v =
  match float_of_string_opt v with
  | Some x -> x
  | None -> raise (Bad (Printf.sprintf "%s: not a number: %S" key v))

let int_field key v =
  match int_of_string_opt v with
  | Some x -> x
  | None -> raise (Bad (Printf.sprintf "%s: not an integer: %S" key v))

(* "P" or "P:BOUND" *)
let prob_with_bound key v default_bound =
  match String.index_opt v ':' with
  | None -> (float_field key v, default_bound)
  | Some i ->
    ( float_field key (String.sub v 0 i),
      int_field key (String.sub v (i + 1) (String.length v - i - 1)) )

(* "NODE@AT+DOWNTIME" *)
let crash_field v =
  try Scanf.sscanf v "%d@%f+%f%!" (fun node at down_for -> { node; at; down_for })
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    raise (Bad (Printf.sprintf "crash: expected NODE@AT+DOWNTIME, got %S" v))

(* "NODE@AT+DOWN*COUNT:PERIOD" *)
let flap_field v =
  try
    Scanf.sscanf v "%d@%f+%f*%d:%f%!" (fun fnode fat fdown fcount fperiod ->
        { fnode; fat; fdown; fcount; fperiod })
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    raise
      (Bad (Printf.sprintf "flap: expected NODE@AT+DOWN*COUNT:PERIOD, got %S" v))

(* "NODE@AT" *)
let churn_field key kind v =
  try Scanf.sscanf v "%d@%f%!" (fun cnode cat -> { cnode; cat; ckind = kind })
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    raise (Bad (Printf.sprintf "%s: expected NODE@AT, got %S" key v))

let spec_of_string str =
  let str = String.trim str in
  if str = "" || str = "none" then Ok none
  else
    try
      let s =
        List.fold_left
          (fun s field ->
            let field = String.trim field in
            match String.index_opt field '=' with
            | None -> raise (Bad (Printf.sprintf "expected key=value, got %S" field))
            | Some i ->
              let key = String.sub field 0 i in
              let v = String.sub field (i + 1) (String.length field - i - 1) in
              (match key with
              | "drop" -> { s with drop = float_field key v }
              | "dup" | "duplicate" -> { s with duplicate = float_field key v }
              | "reorder" ->
                let p, d = prob_with_bound key v s.reorder_depth in
                { s with reorder = p; reorder_depth = d }
              | "delay" ->
                let p, d = prob_with_bound key v s.delay_max in
                { s with delay = p; delay_max = d }
              | "crash" -> { s with crashes = s.crashes @ [ crash_field v ] }
              | "flap" -> { s with flaps = s.flaps @ [ flap_field v ] }
              | "leave" ->
                { s with churn = s.churn @ [ churn_field key Leave v ] }
              | "join" ->
                { s with churn = s.churn @ [ churn_field key Join v ] }
              | "detached" ->
                { s with detached = s.detached @ [ int_field key v ] }
              | _ -> raise (Bad (Printf.sprintf "unknown field %S" key))))
          none
          (String.split_on_char ',' str)
      in
      validate s
    with Bad m -> Error m

let spec_to_string s =
  let b = Buffer.create 64 in
  let field fmt =
    if Buffer.length b > 0 then Buffer.add_char b ',';
    Printf.ksprintf (Buffer.add_string b) fmt
  in
  if s.drop > 0.0 then field "drop=%g" s.drop;
  if s.duplicate > 0.0 then field "dup=%g" s.duplicate;
  if s.reorder > 0.0 then field "reorder=%g:%d" s.reorder s.reorder_depth;
  if s.delay > 0.0 then field "delay=%g:%d" s.delay s.delay_max;
  List.iter
    (fun c -> field "crash=%d@%g+%g" c.node c.at c.down_for)
    s.crashes;
  List.iter
    (fun f -> field "flap=%d@%g+%g*%d:%g" f.fnode f.fat f.fdown f.fcount f.fperiod)
    s.flaps;
  List.iter
    (fun c ->
      field "%s=%d@%g"
        (match c.ckind with Leave -> "leave" | Join -> "join")
        c.cnode c.cat)
    s.churn;
  List.iter (fun u -> field "detached=%d" u) s.detached;
  if Buffer.length b = 0 then "none" else Buffer.contents b

(* ---- plans -------------------------------------------------------- *)

type t = {
  seed : int;
  spec : spec;
  c_drop : Telemetry.Metrics.counter;
  c_dup : Telemetry.Metrics.counter;
  c_reorder : Telemetry.Metrics.counter;
  c_delay : Telemetry.Metrics.counter;
  c_crash : Telemetry.Metrics.counter;
  c_restart : Telemetry.Metrics.counter;
  c_leave : Telemetry.Metrics.counter;
  c_join : Telemetry.Metrics.counter;
}

let create ?(metrics = Telemetry.Metrics.create ()) ~seed spec =
  let spec =
    match validate spec with
    | Ok s -> s
    | Error m -> invalid_arg ("Fault.Plan.create: " ^ m)
  in
  let c name = Telemetry.Metrics.counter metrics ("fault.injected." ^ name) in
  {
    seed;
    spec;
    c_drop = c "drop";
    c_dup = c "duplicate";
    c_reorder = c "reorder";
    c_delay = c "delay";
    c_crash = c "crash";
    c_restart = c "restart";
    c_leave = c "leave";
    c_join = c "join";
  }

let seed t = t.seed

let spec t = t.spec

(* The generator for one decision point: a distinct, well-mixed
   SplitMix64 stream per (seed, stream, src, dst, attempt).  The odd
   multipliers keep distinct tuples at distinct 63-bit keys for all
   realistic sizes; SplitMix64's output function then provides the
   avalanche. *)
let keyed t ~stream ~src ~dst ~attempt =
  let k =
    ((((t.seed * 1_000_003) + stream) * 999_983) + src) * 1_000_033 + dst
  in
  Prng.Splitmix.create ((k * 786_433) + attempt)

let count_crash t = Telemetry.Metrics.incr t.c_crash

let count_restart t = Telemetry.Metrics.incr t.c_restart

let count_leave t = Telemetry.Metrics.incr t.c_leave

let count_join t = Telemetry.Metrics.incr t.c_join

let hook t ~src ~dst ~attempt =
  let g = keyed t ~stream:0 ~src ~dst ~attempt in
  (* fixed draw order, independent of which faults are enabled *)
  let drop = Prng.Splitmix.bernoulli g t.spec.drop in
  let duplicate = Prng.Splitmix.bernoulli g t.spec.duplicate in
  let reorder = Prng.Splitmix.bernoulli g t.spec.reorder in
  if drop then begin
    Telemetry.Metrics.incr t.c_drop;
    { Simul.Network.drop = true; duplicate = false; reorder_depth = 0 }
  end
  else begin
    if duplicate then Telemetry.Metrics.incr t.c_dup;
    let reorder_depth =
      if reorder then begin
        Telemetry.Metrics.incr t.c_reorder;
        1 + Prng.Splitmix.int g t.spec.reorder_depth
      end
      else 0
    in
    { Simul.Network.drop = false; duplicate; reorder_depth }
  end

let latency t ~base =
  if t.spec.delay <= 0.0 then base
  else begin
    (* per-directed-edge call counter: the delay analogue of the
       network's send-attempt counter *)
    let calls : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    fun ~src ~dst ->
      let n = Option.value ~default:0 (Hashtbl.find_opt calls (src, dst)) in
      Hashtbl.replace calls (src, dst) (n + 1);
      let b = base ~src ~dst in
      let g = keyed t ~stream:1 ~src ~dst ~attempt:n in
      if Prng.Splitmix.bernoulli g t.spec.delay then begin
        Telemetry.Metrics.incr t.c_delay;
        b +. float_of_int (1 + Prng.Splitmix.int g t.spec.delay_max)
      end
      else b
  end

let drops t = Telemetry.Metrics.counter_value t.c_drop

let duplicates t = Telemetry.Metrics.counter_value t.c_dup

let reorders t = Telemetry.Metrics.counter_value t.c_reorder

let delays t = Telemetry.Metrics.counter_value t.c_delay

let crashes_executed t = Telemetry.Metrics.counter_value t.c_crash

let leaves_executed t = Telemetry.Metrics.counter_value t.c_leave

let joins_executed t = Telemetry.Metrics.counter_value t.c_join

(* ---- seeded churn synthesis --------------------------------------- *)

(* Roll the membership automaton forward at a fixed event rate and
   record the legal moves it makes.  All randomness comes from one
   SplitMix stream keyed on the seed, so (seed, tree, order, rate,
   horizon) reproduces the schedule exactly.  [order] biases who churns:
   at each tick the move is drawn among the first few eligible nodes in
   that order (e.g. {!Dht.Plaxton.churn_order} puts overlay leaves
   first), so the schedule respects the overlay's departure
   preferences without becoming deterministic. *)
let synth_churn ~seed ~tree ~order ~rate ~horizon =
  if rate <= 0.0 then []
  else begin
    let dyn = Tree.Dyn.create tree in
    let g = Prng.Splitmix.create (seed lxor 0x5DEECE66D) in
    let period = 1.0 /. rate in
    let events = ref [] in
    let t = ref period in
    while !t <= horizon do
      let leavers =
        List.filter
          (fun u -> Result.is_ok (Tree.Dyn.can_detach dyn u))
          order
      in
      let joiners =
        List.filter
          (fun u -> Result.is_ok (Tree.Dyn.can_attach dyn u))
          order
      in
      let pick pool =
        let k = min 4 (List.length pool) in
        List.nth pool (Prng.Splitmix.int g k)
      in
      (match (leavers, joiners) with
      | [], [] -> ()
      | _ :: _, [] | _ :: _, _ :: _ when joiners = [] || Prng.Splitmix.bool g
        ->
        let u = pick leavers in
        ignore (Tree.Dyn.detach dyn u);
        events := { cnode = u; cat = !t; ckind = Leave } :: !events
      | _ ->
        let u = pick joiners in
        ignore (Tree.Dyn.attach dyn u);
        events := { cnode = u; cat = !t; ckind = Join } :: !events);
      t := !t +. period
    done;
    List.rev !events
  end
