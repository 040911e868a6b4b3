(* Merkle anti-entropy over ghost-log frontiers.

   After a partition heals (crash + restart, or a depart/join cycle),
   two neighbours' ghost logs can disagree about the write history of
   whole subtrees.  The mechanism's own piggybacking repairs what the
   protocol happens to retransmit; this module is the explicit
   reconciliation pass: compare compact hash-tree summaries of the two
   per-origin frontiers, descend only into differing ranges, and ship
   exactly the missing per-origin write suffixes.  Soundness leans on
   the ghost-log prefix invariant (every log holds a dense prefix of
   each origin's write sequence, see Mechanism.ghost_frontier): state
   comparison reduces to comparing per-origin high-water marks, and the
   edge divergence is the L1 distance between frontiers.

   The exchange is simulated in place — frontiers and suffixes move by
   direct state access, not data-plane frames — but the message
   accounting in [stats] models the real protocol: one request/response
   summary pair per hash-tree node compared, one range message per
   divergent leaf suffix shipped. *)

type stats = {
  mutable rounds : int;  (* full edge sweeps performed *)
  mutable edges_synced : int;  (* edge reconciliations with traffic *)
  mutable summary_msgs : int;  (* hash-tree node comparisons x 2 *)
  mutable range_msgs : int;  (* divergent-range shipments *)
  mutable writes_shipped : int;  (* ghost writes transferred *)
}

let fresh_stats () =
  {
    rounds = 0;
    edges_synced = 0;
    summary_msgs = 0;
    range_msgs = 0;
    writes_shipped = 0;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "rounds=%d edges=%d summaries=%d ranges=%d writes=%d" s.rounds
    s.edges_synced s.summary_msgs s.range_msgs s.writes_shipped

(* ------------------------------------------------------------------ *)
(* Hash-tree summaries of a frontier (per-origin high-water marks).   *)

module Merkle = struct
  type t = { n : int; h : int64 array }  (* heap layout, root at 1 *)

  (* SplitMix64's output permutation: full avalanche, cheap, and
     deterministic across runs/platforms. *)
  let mix64 z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let leaf_hash origin hw =
    mix64
      (Int64.logxor
         (Int64.mul (Int64.of_int (origin + 1)) 0x9E3779B97F4A7C15L)
         (Int64.of_int (hw + 2)))

  (* order-dependent combine: left and right subtrees are not
     interchangeable *)
  let node_hash l r = mix64 (Int64.add (Int64.mul l 0xC2B2AE3D27D4EB4FL) r)

  let build frontier =
    let n = Array.length frontier in
    let h = Array.make (4 * max 1 n) 0L in
    let rec go i lo hi =
      if hi - lo = 1 then h.(i) <- leaf_hash lo frontier.(lo)
      else begin
        let mid = (lo + hi) / 2 in
        go (2 * i) lo mid;
        go ((2 * i) + 1) mid hi;
        h.(i) <- node_hash h.(2 * i) h.((2 * i) + 1)
      end
    in
    if n > 0 then go 1 0 n;
    { n; h }

  let root t = if t.n = 0 then 0L else t.h.(1)

  (* Origins whose leaves differ, ascending; [visit] is called once per
     hash-tree node compared (the summary-message cost of the walk). *)
  let diff_origins a b ~visit =
    if a.n <> b.n then invalid_arg "Repair.Merkle.diff_origins: size mismatch";
    let acc = ref [] in
    let rec go i lo hi =
      visit ();
      if a.h.(i) <> b.h.(i) then begin
        if hi - lo = 1 then acc := lo :: !acc
        else begin
          let mid = (lo + hi) / 2 in
          go (2 * i) lo mid;
          go ((2 * i) + 1) mid hi
        end
      end
    in
    if a.n > 0 then go 1 0 a.n;
    List.rev !acc
end

(* ------------------------------------------------------------------ *)
(* Reconciliation over a mechanism's ghost state.                     *)

module Make (Op : Agg.Operator.S) = struct
  module M = Oat.Mechanism.Make (Op)

  type mech = M.t

  (* L1 distance between the two endpoints' frontiers: how many writes
     one of them is missing.  0 iff the logs agree (prefix invariant). *)
  let divergence m ~a ~b =
    let fa = M.ghost_frontier m ~node:a and fb = M.ghost_frontier m ~node:b in
    let d = ref 0 in
    Array.iteri (fun o ha -> d := !d + abs (ha - fb.(o))) fa;
    !d

  (* Edges of the active tree both of whose endpoints can exchange
     repair traffic right now. *)
  let active_edges m =
    List.filter
      (fun (u, v) ->
        M.alive m u && M.alive m v && M.attached m u && M.attached m v)
      (Tree.edges (M.tree m))

  let total_divergence m =
    List.fold_left (fun acc (u, v) -> acc + divergence m ~a:u ~b:v) 0
      (active_edges m)

  (* Reconcile one edge: exchange summaries, descend into differing
     ranges, ship each divergent origin's missing suffix toward the
     endpoint that is behind.  Returns the number of writes shipped
     (0 = the edge already agreed; the only exchange was the root
     summary pair). *)
  let sync_edge ?stats m ~a ~b =
    let fa = M.ghost_frontier m ~node:a and fb = M.ghost_frontier m ~node:b in
    let sa = Merkle.build fa and sb = Merkle.build fb in
    let visit () =
      match stats with
      | None -> ()
      | Some s -> s.summary_msgs <- s.summary_msgs + 2
    in
    let origins = Merkle.diff_origins sa sb ~visit in
    let shipped = ref 0 in
    List.iter
      (fun o ->
        let ha = fa.(o) and hb = fb.(o) in
        let src, dst, above = if ha > hb then (a, b, hb) else (b, a, ha) in
        let ws = M.ghost_suffix m ~node:src ~origin:o ~above in
        let k = List.length ws in
        if k > 0 then begin
          M.ghost_admit m ~node:dst ws;
          shipped := !shipped + k;
          match stats with
          | None -> ()
          | Some s ->
            s.range_msgs <- s.range_msgs + 1;
            s.writes_shipped <- s.writes_shipped + k
        end)
      origins;
    (match stats with
    | Some s when !shipped > 0 -> s.edges_synced <- s.edges_synced + 1
    | _ -> ());
    !shipped

  (* Sweep every active edge until a full sweep ships nothing.  Each
     sweep propagates every origin's history one hop, so convergence
     takes at most (active diameter) sweeps; the fixpoint sweep that
     ships nothing certifies divergence = 0 over all active edges. *)
  let sync ?stats m =
    let edges = active_edges m in
    let total = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      (match stats with Some s -> s.rounds <- s.rounds + 1 | None -> ());
      let moved =
        List.fold_left
          (fun acc (u, v) -> acc + sync_edge ?stats m ~a:u ~b:v)
          0 edges
      in
      total := !total + moved;
      if moved = 0 then continue_ := false
    done;
    !total

  (* The drivers' end-of-run step: it runs after their audits because
     [sync] mutates ghost state, and re-audits when it does. *)
  let heal ?(repair = false) m =
    let before = total_divergence m in
    let stats = fresh_stats () in
    if not repair then (before, before, stats)
    else begin
      ignore (sync ~stats m);
      M.check_invariants m;
      (before, total_divergence m, stats)
    end
end
