(** Metric registry: counters, gauges, and constant-memory log-bucketed
    streaming histograms, exported as JSONL via {!Dsim.Json}.

    Snapshots are deterministic for a deterministic simulation: metrics
    print sorted by name, and {e volatile} metrics (wall-clock-derived
    gauges) are excluded unless explicitly requested, so the default
    export is byte-identical across same-seed runs. *)

type t
(** A registry.  One per observed run. *)

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Register (or look up) the counter named [name].  Raises
    [Invalid_argument] if the name is already bound to another kind. *)

val incr : ?by:int -> counter -> unit

val value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> ?volatile:bool -> string -> gauge
(** A settable gauge.  [volatile] (default false) marks values derived
    from wall time or other non-reproducible sources; they are dropped
    from default snapshots. *)

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** [set_max g v] raises the gauge to [v] if larger (high-water marks). *)

val probe : t -> ?volatile:bool -> string -> (unit -> float) -> unit
(** A gauge read from a callback at snapshot time. *)

val multi_probe : t -> ?volatile:bool -> (unit -> (string * float) list) -> unit
(** A probe producing dynamically named gauges at snapshot time — used for
    per-category engine stats whose category set isn't known up front. *)

(** {1 Streaming histograms}

    Log-bucketed: an observation [v > 0] lands in the bucket [i] with
    [gamma^i <= v < gamma^(i+1)]; non-positive observations are counted in
    a dedicated zeros bucket.  The counts are one int array over the
    bucket indices from the lowest observed to the highest, each with its
    boundary computed once.  Memory is O(that range) — constant for
    bounded dynamic range — regardless of observation count, and once
    the range covers an observation, {!observe} allocates nothing. *)

type histogram

val default_gamma : float
(** [2 ** 0.25] — about 19% relative bucket width, four buckets per
    doubling. *)

val histogram : t -> ?gamma:float -> string -> histogram
(** Requires [gamma > 1]. *)

val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_min : histogram -> float
(** Exact observed min ([nan] when empty). *)

val hist_max : histogram -> float
(** Exact observed max ([nan] when empty). *)

val boundary : histogram -> int -> float
(** [boundary h i] is [gamma^i], the lower edge of bucket [i]. *)

val quantile : histogram -> float -> float
(** [quantile h q], [q] in [[0, 1]]: nearest-rank quantile resolved to the
    upper boundary of the holding bucket (clamped to the observed max);
    ranks inside the zeros bucket yield [0.].  [nan] when empty. *)

(** {1 Export} *)

val snapshot : ?include_volatile:bool -> t -> Dsim.Json.t list
(** One JSON object per metric, sorted by name.  Counters:
    [{"kind":"counter","name":n,"value":v}].  Gauges and probes:
    [{"kind":"gauge",...}].  Histograms: [{"kind":"histogram",...}] with
    [count]/[sum]/[min]/[max]/[zeros]/[gamma]/[p50]/[p90]/[p99] and
    [buckets] as [[lo, hi, count]] triples.  Volatile metrics appear only
    with [~include_volatile:true]. *)
