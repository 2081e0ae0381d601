(** Campaign runner: a job list fanned across a {!Pool}, served from the
    {!Cache} where possible, with outcomes merged back in job-index order
    (byte-identical aggregates for any worker count).  The cache is the
    checkpoint: a killed campaign re-run with the same cache replays its
    finished cells and runs only the rest. *)

type source =
  | Ran  (** executed this invocation *)
  | Cached  (** replayed from the content-addressed cache *)

type outcome = {
  index : int;
  digest : string;
  result : Dsim.Json.t;
  output : string;  (** report text captured through {!Sink} *)
  engine : Obs.Global.snap;
  wall_s : float;
  t_start : float;
      (** injected-clock time the job started; 0 for replayed jobs *)
  worker : int;
      (** {!Pool.self_index} of the domain that ran the job; -1 for
          replayed jobs (worker placement is a fact about the run that
          executed them, not this one) *)
  source : source;
}

type stats = {
  total : int;
  ran : int;
  cached : int;
  cache_hits : int;  (** cache lookups served from disk, this run *)
  cache_misses : int;
  busy_s : float;  (** summed [wall_s] of executed jobs *)
  elapsed_s : float;  (** injected-clock span of the whole campaign *)
}

val run :
  ?jobs:int ->
  ?salt:string ->
  ?cache:Cache.t ->
  ?clock:(unit -> float) ->
  Job.t list ->
  outcome array * stats
(** Run the campaign with up to [jobs] domains (default 1 = sequential).

    [salt] is the code-version salt folded into every job digest.
    Without a [cache] every job runs and nothing is written to disk;
    with one, cached jobs are replayed and each executed job is stored
    as it finishes.  [clock] injects wall time for the per-job [wall_s]
    field (the library reads no clocks itself — lint D3). *)
