(** The linear program of the paper's Figure 5.

    Variables: the competitive factor [c] and one potential
    [Phi(x,y) >= 0] per state of the Figure 4 machine.  Each non-trivial
    transition contributes the amortized-cost inequality

    {v Phi(target) - Phi(source) + rww_cost <= c * opt_cost v}

    and the objective minimizes [c].  The paper reports the optimum
    c = 5/2 with Phi = (0, 2, 3, 5/2, 2, 1/2); this module builds the LP
    both from the literal 21 rows printed in Figure 5 and from the
    {!Transition_system} machine, checks they coincide, solves with
    {!Simplex}, and certifies the paper's solution. *)

(** One inequality [Phi(plus) - Phi(minus) + k <= copt * c]. *)
type row = {
  plus : Transition_system.state;
  minus : Transition_system.state;
  k : int;  (** RWW's cost on the transition *)
  copt : int;  (** OPT's cost on the transition *)
}

val literal_rows : row list
(** The 21 rows exactly as printed in Figure 5, in the paper's order. *)

val rows_coincide : unit -> bool
(** {!literal_rows} and the rows generated from
    {!Transition_system.transitions} are equal as multisets. *)

val var_index : [ `C | `Phi of Transition_system.state ] -> int
(** Column layout of the LP: [c] first, then Phi in state order. *)

val problem : row list -> Simplex.problem
(** Minimize [c] subject to the rows (all variables nonnegative). *)

type outcome = {
  c : float;  (** optimal competitive factor *)
  phi : (Transition_system.state * float) list;
}

val solve : unit -> (outcome, Simplex.error) result
(** Solve the literal LP. *)

val paper_solution : float array
(** c = 5/2, Phi(0,0)=0, Phi(0,1)=2, Phi(0,2)=3, Phi(1,0)=5/2,
    Phi(1,1)=2, Phi(1,2)=1/2, in {!var_index} layout. *)

val paper_solution_feasible : unit -> bool
