(* Host-speed reference kernel (NOTES.md, finding 8).

   On a shared host the speed of branchy, pointer-heavy code swings by
   up to 2x for seconds to minutes with the load of other tenants, and
   a slow spell can cover a whole run.  rww-seq therefore times this
   kernel next to the work it measures and reports every time at the
   reference speed: a time taken while the kernel ran in [p] ns is
   scaled by [ref_ns /. p].

   The kernel is fixed work of the same kind as the library's request
   path (balanced-tree updates and lookups, small allocations, format
   interpretation) and uses nothing from the library, so a change to
   the library cannot move it.  It takes about 0.5 ms on the machine
   the benchmark was tuned on.  It is not used on the sharded engine:
   there its allocation starts minor collections on every domain, so
   it would time the program too (finding 9). *)

module IM = Map.Make (Int)

(* The kernel's time at the reference speed.  Reported times are in
   microseconds of a host on which one [run] takes this long. *)
let ref_ns = 500_000.

let key i = (i * 7919) land 4095
let base = List.fold_left (fun m i -> IM.add (key i) i m) IM.empty (List.init 1000 Fun.id)

(* One run of the kernel; returns its wall time in ns. *)
let run () =
  let t0 = Spans.now () in
  let m = ref base and acc = ref 0 in
  for i = 0 to 999 do
    let k = key i in
    m := IM.add k (i + 1) !m;
    (match IM.find_opt (k lxor 1) !m with Some v -> acc := !acc + v | None -> ());
    acc := !acc + String.length (Printf.sprintf "%d:%x" i k)
  done;
  ignore (Sys.opaque_identity !acc);
  Spans.now () - t0

(* Minor words one [run] allocates.  It is the same in every run, so
   the benchmark takes the kernel out of its allocation counts. *)
let words =
  let w0 = Gc.minor_words () in
  ignore (run ());
  Gc.minor_words () -. w0
