(* Campaign telemetry: outcome arrays rendered as Chrome trace timelines
   plus the one-line stderr summary.

   Two timelines, deliberately separate:

   - [virtual_trace] is part of the campaign's byte-identity contract:
     it orders jobs by index on one virtual track whose clock counts
     engine events (1 event = 1 trace microsecond), and its args carry
     only deterministic facts (digest, engine counters).  Same seed and
     job list => byte-identical file for any [--jobs N] and any cache
     state.

   - [wall_trace] shows what actually happened on the machine: one track
     per worker domain, executed jobs as slices on the injected clock.
     It is honest about being volatile — replayed jobs carry no
     placement facts and are omitted. *)

let campaign_pid = 1

(* Engine events per virtual-trace time unit; Obs.Tracing renders one
   unit as 1000 us, so one engine event lands at 1 us. *)
let events_per_unit = 1000.

let engine_args (e : Obs.Global.snap) =
  let n v = Dsim.Json.Number (float_of_int v) in
  [
    ("events", n e.Obs.Global.events);
    ("runs", n e.Obs.Global.runs);
    ("pushes", n e.Obs.Global.pushes);
    ("bcasts", n e.Obs.Global.bcasts);
    ("rcvs", n e.Obs.Global.rcvs);
    ("acks", n e.Obs.Global.acks);
  ]

let virtual_trace ?(name = "campaign (virtual time)") outcomes =
  let w = Obs.Tracing.create () in
  Obs.Tracing.process_name w ~pid:campaign_pid name;
  Obs.Tracing.thread_name w ~pid:campaign_pid ~tid:0
    "jobs (1 engine event = 1us)";
  let t = ref 0. in
  Array.iter
    (fun (o : Campaign.outcome) ->
      let dur =
        float_of_int o.Campaign.engine.Obs.Global.events /. events_per_unit
      in
      (* Only deterministic facts in args: wall_s, worker, and source
         vary run to run and would break the trace-identity contract. *)
      Obs.Tracing.complete w ~cat:"job"
        ~args:
          (("digest", Dsim.Json.String o.Campaign.digest)
          :: engine_args o.Campaign.engine)
        ~pid:campaign_pid ~tid:0 ~ts:!t ~dur
        (Printf.sprintf "job %d" o.Campaign.index);
      t := !t +. dur;
      Obs.Tracing.counter w ~pid:campaign_pid ~ts:!t "engine events"
        [ ("cumulative", !t *. events_per_unit) ])
    outcomes;
  w

let wall_trace ?(name = "campaign workers") outcomes =
  let w = Obs.Tracing.create () in
  Obs.Tracing.process_name w ~pid:campaign_pid name;
  let named = Dsim.Bitset.create ~width:8 in
  let track worker =
    if not (Dsim.Bitset.test_and_add named worker) then
      Obs.Tracing.thread_name w ~pid:campaign_pid ~tid:worker
        (Printf.sprintf "worker %d" worker);
    worker
  in
  Array.iter
    (fun (o : Campaign.outcome) ->
      if o.Campaign.source = Campaign.Ran then
        (* Injected-clock seconds -> time units (1 unit = 1 trace ms),
           so one second of wall time renders as one second. *)
        Obs.Tracing.complete w ~cat:"job"
          ~args:
            [
              ("digest", Dsim.Json.String o.Campaign.digest);
              ("index", Dsim.Json.Number (float_of_int o.Campaign.index));
            ]
          ~pid:campaign_pid
          ~tid:(track o.Campaign.worker)
          ~ts:(o.Campaign.t_start *. 1000.)
          ~dur:(o.Campaign.wall_s *. 1000.)
          (Printf.sprintf "job %d" o.Campaign.index))
    outcomes;
  w

let summary ~jobs (s : Campaign.stats) =
  let base =
    Printf.sprintf
      "campaign: %d cells on %d domain(s) — %d ran, %d cached (cache: %d \
       hits, %d misses)"
      s.Campaign.total jobs s.Campaign.ran s.Campaign.cached
      s.Campaign.cache_hits s.Campaign.cache_misses
  in
  if s.Campaign.elapsed_s > 0. then
    Printf.sprintf "%s — busy %.2fs of %.2fs on %d domain(s), %.0f%% pool \
                    utilization"
      base s.Campaign.busy_s s.Campaign.elapsed_s jobs
      (100. *. s.Campaign.busy_s
      /. (float_of_int (max 1 jobs) *. s.Campaign.elapsed_s))
  else base
