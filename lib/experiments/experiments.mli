(** The reproduction experiments (see EXPERIMENTS.md for the index).

    Each experiment prints one table regenerating a figure, table, or
    theorem of the paper, then judges whether the paper's shape held. *)

type entry = {
  id : string;  (** ["e1"] .. ["e16"], ["e21"]: the [oat tables --only] key *)
  run : unit -> string * bool;
      (** Print the table; return the harness summary line and the
          verdict, [true] iff the shape held. *)
}

val all : entry list
(** Every experiment, in table order.  [oat tables] and
    [bench/main.exe] (no flag) both run this list and fail on a
    [false] verdict. *)
