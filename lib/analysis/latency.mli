(** Request latency under virtual time.

    Runs a lease policy over a sequential workload with every hop taking
    one virtual time unit ({!Simul.Devent}) and records, per combine,
    the virtual time between initiation and completion.  A combine
    answered from local lease state has latency 0; a cold combine pays a
    round trip to the deepest unleased frontier; a write's updates
    propagate asynchronously (writes complete locally, latency 0, as in
    the paper's model).

    This quantifies the paper's introduction: MDS-2-style strategies pay
    a full-tree round trip on every read, Astrolabe-style strategies
    read at latency 0, and RWW converges to 0 on read-heavy phases. *)

type result = {
  policy : string;
  combine_latencies : float list;  (** one entry per combine, in order *)
  messages : int;
  virtual_makespan : float;  (** final virtual time *)
}

val run :
  ?inter_arrival:float ->
  Tree.t ->
  policy:Oat.Policy.factory ->
  float Oat.Request.t list ->
  result
(** Execute sequentially (each request starts once the network is quiet)
    under unit hop latency: a virtual-time {!Baselines.Algorithm.t}
    whose requests advance the clock by [inter_arrival] (default 0, so
    time-based policies can observe idle periods), start, and drain
    with {!Simul.Devent.drain}, run by {!Baselines.Algorithm.run}, so
    every combine is judged by {!Consistency.Strict}.  A combine's
    latency is its completion time minus its start.
    @raise Failure on a consistency violation or a combine that does
    not complete. *)

val run_timed :
  ?inter_arrival:float ->
  Tree.t ->
  policy:(now:(unit -> float) -> Oat.Policy.factory) ->
  float Oat.Request.t list ->
  result
(** Like {!run}, but the policy gets read access to the virtual clock —
    needed by time-based policies ({!Oat.Timed_policy}). *)

val summary : result -> Stats.summary
(** Summary of the combine latencies. *)
