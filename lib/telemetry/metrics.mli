(** Named metrics registry: counters, gauges, and log-scale histograms.

    A registry holds named metrics.  Registration ({!counter}, {!gauge},
    {!histogram}) looks the name up once and returns a handle; all
    subsequent operations on the handle are O(1) and allocation-free, so
    instrumented hot paths pay only an array/field update.  Registering
    the same name twice returns the same handle (handy for reading a
    metric back by name in tests).

    - Counters are monotone ints ({!incr}, {!add}).
    - Gauges hold a current value and remember their high-water mark.
    - Histograms bucket non-negative ints by powers of two (bucket [b]
      covers [[2^(b-1), 2^b)]), with exact count/sum/max and upper-bound
      quantile estimates.

    Snapshots render as an aligned text table or as JSON. *)

type t

type counter

type gauge

type histogram

val create : unit -> t

val counter : t -> string -> counter
(** @raise Invalid_argument if the name is registered as another type. *)

val gauge : t -> string -> gauge

val histogram : t -> string -> histogram

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

val gauge_set : gauge -> int -> unit
(** Sets the value and raises the high-water mark if exceeded. *)

val gauge_add : gauge -> int -> unit

val gauge_set_max : gauge -> int -> unit
(** Monotone watermark update: sets the value only if it exceeds the
    current one (and the high-water mark follows, as with
    {!gauge_set}).  Useful for per-run peaks such as mailbox depth. *)

val gauge_value : gauge -> int

val gauge_hwm : gauge -> int

val gc_sample : t -> unit
(** Refresh the GC health gauges from {!Gc.quick_stat}:
    [gc.minor_words], [gc.promoted_words], [gc.minor_collections],
    [gc.major_collections], [gc.heap_words].  Sampled on demand — call
    it wherever a health snapshot is taken; a registry {!reset}
    re-baselines these along with everything else. *)

val observe : histogram -> int -> unit
(** [observe h v] is [observe_n h v 1]. *)

val observe_n : histogram -> int -> int -> unit
(** [observe_n h v c] records [c] observations of [v] at once: every
    bucket, count, sum and max reads as after [c] calls of {!observe}.
    No-op when [c <= 0]. *)

val histogram_count : histogram -> int

val histogram_sum : histogram -> int

val histogram_max : histogram -> int

val quantile : histogram -> float -> int
(** [quantile h q] for [q] in [0,1]: the inclusive upper edge of the
    bucket holding the [q]-quantile observation, clamped to the observed
    maximum.  0 if the histogram is empty. *)

type row =
  | Counter_row of { name : string; value : int }
  | Gauge_row of { name : string; value : int; hwm : int }
  | Histogram_row of {
      name : string;
      count : int;
      sum : int;
      max : int;
      p50 : int;
      p95 : int;
      p99 : int;
    }

val snapshot : t -> row list
(** All metrics, sorted by name. *)

val to_text : t -> string
(** Aligned, human-readable table, one metric per line. *)

val to_json : t -> string

val escape_json : string -> string
(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped.  Shared with {!Export}. *)

val merge : t list -> t
(** [merge ts] is a fresh registry holding every metric of [ts], folded
    left to right — the fleet view of per-shard registries: counters
    add, gauges take the maximum of both value and high-water mark,
    histograms merge bucket-wise (count, sum and max included) — exact,
    so merged quantiles equal those of a single registry fed the union
    of observations.  The inputs are left untouched.  Commutative and
    associative up to snapshot equality; [merge []] is an empty
    registry.
    @raise Invalid_argument if a name is registered under two metric
    types. *)

val reset : t -> unit
(** Zero every metric (counters, gauge values and high-water marks,
    histogram buckets) without dropping registrations — the handles held
    by instrumented components stay valid.  Useful for per-phase
    snapshots. *)
