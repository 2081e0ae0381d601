(** Campaign telemetry: {!Campaign.outcome} arrays rendered as Chrome
    trace timelines (via {!Obs.Tracing}) plus the stderr summary line. *)

val virtual_trace :
  ?name:string -> Campaign.outcome array -> Obs.Tracing.t
(** The deterministic job timeline: every job as a slice on one virtual
    track, index order, with a clock that counts engine events (1 event
    = 1 trace microsecond) and args carrying only deterministic facts
    (digest, engine counters).  Part of the campaign byte-identity
    contract — same job list and seed produce a byte-identical file for
    any worker count and any cache state. *)

val wall_trace : ?name:string -> Campaign.outcome array -> Obs.Tracing.t
(** What actually happened: one track per worker domain, executed jobs
    as slices on the injected clock (1 second = 1 trace second).
    Volatile by nature; replayed jobs carry no placement and are
    omitted.  Exposed behind explicit opt-in flags ([--trace-wall]). *)

val summary : jobs:int -> Campaign.stats -> string
(** The one-line campaign summary: cells/ran/cached, cache hits and
    misses, and — when an injected clock measured anything — pool busy
    time and utilization. *)
