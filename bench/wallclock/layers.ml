(* The traced pass: per-layer metrics, measured from outside the library
   by timing calls into its public functions.  It runs after the
   untraced samples, on the same instance, so the end-to-end numbers are
   never taken with instrumentation attached.

   Per-call boundaries (scheduler plan/forced, engine categories) happen
   ~10^5 times per run, so they are kept as count + summed time, not as
   spans.  A metric whose layer is not on a workload's path reads 0. *)

(* A per-layer metric: its name and unit, the end-to-end metrics a
   change to its layer should move, the workloads it should move them on,
   and the control workloads it should leave alone.  [should_move] is
   empty for values that are only reported. *)
type metric = {
  name : string;
  unit : string;
  should_move : string list;
  on : string list;
  control : string list;
}

let serial = [ "serial_grid"; "serial_grid_checked" ]
let megas = [ "mega_line"; "mega_grid" ]

(* Every per-layer metric, in output order: the per_layer list of
   BENCHMARK.json.  Result documents carry this table, so a reader of a
   baseline can tell which layer metric explains which end-to-end
   change. *)
let metrics =
  let group names unit should_move on control =
    List.map (fun name -> { name; unit; should_move; on; control }) names
  in
  let run = [ "run_s" ] and rate = [ "events_per_s" ] in
  List.concat
    [
      group [ "graphs.gen_s"; "graphs.dual_s" ] "s" [ "setup_s" ] megas
        [ "fmmb_grey" ];
      group [ "graphs.partition_s" ] "s" run [ "mega_grid" ] [ "serial_grid" ];
      group [ "graphs.cut_edges" ] "count" run [ "mega_grid" ] [ "serial_grid" ];
      group [ "pdes.part_imbalance" ] "ratio" run [ "mega_grid" ]
        [ "serial_grid" ];
      group
        [ "dsim.events"; "dsim.heap_pushes"; "dsim.heap_cancelled" ]
        "count" rate Workloads.names [];
      group [ "dsim.cancel_ratio" ] "ratio" rate Workloads.names [];
      group [ "dsim.heap_high_water" ] "count" rate Workloads.names [];
      group [ "dsim.engine_self_s" ] "s" run [ "serial_grid" ] megas;
      List.concat_map
        (fun cat ->
          group [ "amac." ^ cat ^ "_events" ] "count" run [ "serial_grid" ] megas
          @ group [ "amac." ^ cat ^ "_s" ] "s" run [ "serial_grid" ] megas)
        [ "deliver"; "ack"; "watchdog"; "abort_gc" ];
      List.concat_map
        (fun call ->
          group [ "amac." ^ call ^ "_calls" ] "count" run [ "serial_grid" ]
            (megas @ [ "fmmb_grey" ])
          @ group [ "amac." ^ call ^ "_s" ] "s" run [ "serial_grid" ]
              (megas @ [ "fmmb_grey" ]))
        [ "plan"; "forced" ];
      group [ "amac.forced_ratio" ] "ratio" run [ "serial_grid" ]
        (megas @ [ "fmmb_grey" ]);
      group [ "amac.callback_self_s" ] "s" run [ "serial_grid" ] [];
      group [ "mmb.bcasts"; "mmb.rcvs"; "mmb.acks" ] "count" rate
        (serial @ megas) [ "fmmb_grey" ];
      group [ "mmb.rcvs_per_bcast" ] "ratio" rate (serial @ megas)
        [ "fmmb_grey" ];
      group
        [ "mmb.rounds_mis"; "mmb.rounds_gather"; "mmb.rounds_spread" ]
        "count" rate [ "fmmb_grey" ] [ "serial_grid" ];
      group [ "mmb.bound_ratio" ] "ratio" [] Workloads.names [];
      group
        [ "obs.spans_us_per_event"; "obs.monitor_us_per_event" ]
        "us" run [ "serial_grid_checked" ] [ "serial_grid" ];
      group [ "obs.monitor_words_per_event" ] "words"
        [ "alloc_words_per_event" ] [ "serial_grid_checked" ] [ "serial_grid" ];
      group
        [ "pdes.windows"; "pdes.events_per_window"; "pdes.remote_deliveries" ]
        "count" run [ "mega_line" ] [ "mega_grid" ];
      group [ "pdes.d2_run_s" ] "s" run [ "mega_line" ] [ "mega_grid" ];
      group [ "pdes.speedup_d2" ] "ratio" run [ "mega_line" ] [ "mega_grid" ];
      group [ "pdes.excess_us_per_window" ] "us" run [ "mega_line" ]
        [ "mega_grid" ];
      group [ "pdes.barrier_excess_s" ] "s" run [ "mega_line" ] [ "mega_grid" ];
      group [ "bench.attributed_frac" ] "ratio" [] [ "serial_grid" ] [];
      group [ "bench.trace_overhead" ] "ratio" [] Workloads.names [];
      group
        [ "bench.setup_wall_s"; "bench.run_wall_s"; "bench.ref_s" ]
        "s" [] Workloads.names [];
    ]

type acc = { mutable calls : int; mutable secs : float }

let acc () = { calls = 0; secs = 0. }

let timed a f x =
  let t0 = Clock.now () in
  let r = f x in
  a.secs <- a.secs +. (Clock.now () -. t0);
  a.calls <- a.calls + 1;
  r

let ratio a b = if b = 0. then 0. else a /. b

(* Median wall seconds of [m]'s untraced runs. *)
let run_wall_s (m : Measure.t) = Measure.wall m (fun s -> [ s.Measure.run_s ])

(* A simulated counter of [m]'s samples; 0 when its layer did not run. *)
let counter (m : Measure.t) name =
  Option.value ~default:0. (List.assoc_opt name m.Measure.counters)

(* Engine handler categories of the standard MAC, in metric order. *)
let categories = [ "deliver"; "ack"; "watchdog"; "abort_gc" ]

let category_metrics sims =
  let stats = List.concat_map Dsim.Sim.category_stats sims in
  let total cat =
    List.fold_left
      (fun (e, s) (name, events, secs) ->
        if String.equal name ("mac." ^ cat) then (e + events, s +. secs)
        else (e, s))
      (0, 0.) stats
  in
  let per_cat =
    List.concat_map
      (fun cat ->
        let events, secs = total cat in
        [
          ("amac." ^ cat ^ "_events", float_of_int events);
          ("amac." ^ cat ^ "_s", secs);
        ])
      categories
  in
  let all_s = List.fold_left (fun s (_, _, secs) -> s +. secs) 0. stats in
  (per_cat, all_s)

let partition dual =
  let g' = Graphs.Dual.unreliable dual in
  let parts = Workloads.partitions in
  let times =
    List.init 3 (fun _ ->
        snd (Clock.time (fun () -> Graphs.Partition.blocks g' ~parts)))
  in
  let part = Graphs.Partition.blocks g' ~parts in
  let sizes = Graphs.Partition.sizes part ~parts in
  let max_size = Array.fold_left max 0 sizes in
  let mean = float_of_int (Graphs.Graph.n g') /. float_of_int parts in
  [
    ("graphs.partition_s", Stats.median times);
    ("graphs.cut_edges", float_of_int (Graphs.Partition.cut_edges g' ~part));
    ("pdes.part_imbalance", ratio (float_of_int max_size) mean);
  ]

(* Median of [b] minus median of [a], or [None] (unresolved) when the
   difference is no larger than either side's IQR: then it is noise, not
   a cost. *)
let difference (a : Stats.summary) (b : Stats.summary) =
  let d = b.Stats.median -. a.Stats.median in
  if Float.abs d <= Float.max (Stats.iqr a) (Stats.iqr b) then None else Some d

(* Runs of each observer variant, interleaved so host drift reaches all
   three alike. *)
let observer_reps = 3

(* The seed-s run of the serial instance three ways: unobserved, with
   spans only, and with spans and the streaming monitor, each
   [observer_reps] times.  A cost is the [difference] of two variants per
   event of that run. *)
let observer_costs ~span input =
  let variants =
    [
      ("observer.none", Workloads.Unobserved);
      ("observer.spans", Workloads.Spans_only);
      ("observer.monitor", Workloads.Spans_and_monitor);
    ]
  in
  let one (name, observer) =
    let w0 = Clock.minor_words () in
    let o, t =
      span.Workloads.run name (fun () ->
          Clock.time (fun () -> Workloads.run ~observer input))
    in
    (float_of_int o.Workloads.events, t, Clock.minor_words () -. w0)
  in
  let reps = List.init observer_reps (fun _ -> List.map one variants) in
  let ev = match reps with ((ev, _, _) :: _) :: _ -> ev | _ -> 1. in
  let column i f = Stats.summarize (List.map (fun r -> f (List.nth r i)) reps) in
  let time i = column i (fun (_, t, _) -> t)
  and words i = column i (fun (_, _, w) -> w) in
  let per_event scale d = Option.map (fun d -> d /. ev *. scale) d in
  [
    ("obs.spans_us_per_event", per_event 1e6 (difference (time 0) (time 1)));
    ("obs.monitor_us_per_event", per_event 1e6 (difference (time 1) (time 2)));
    ("obs.monitor_words_per_event", per_event 1. (difference (words 1) (words 2)));
  ]

let serial ~span (m : Measure.t) =
  let plan = acc () and forced = acc () in
  let sims = ref [] in
  let probe =
    {
      Workloads.wrap_policy =
        (fun p ->
          {
            p with
            Amac.Mac_intf.pol_plan = timed plan p.Amac.Mac_intf.pol_plan;
            pol_forced = timed forced p.Amac.Mac_intf.pol_forced;
          });
      on_sim =
        (fun sim ->
          Dsim.Sim.set_wall_clock sim Clock.now;
          sims := sim :: !sims);
    }
  in
  let o, traced =
    span.Workloads.run "traced.run" (fun () ->
        Clock.time (fun () -> Workloads.run ~probe m.Measure.input))
  in
  let per_cat, cat_s = category_metrics !sims in
  let obs = observer_costs ~span m.Measure.input in
  ( traced,
    per_cat
    @ [
        ("dsim.engine_self_s", traced -. cat_s);
        ("amac.plan_calls", float_of_int plan.calls);
        ("amac.plan_s", plan.secs);
        ("amac.forced_calls", float_of_int forced.calls);
        ("amac.forced_s", forced.secs);
        ("amac.forced_ratio", ratio (float_of_int forced.calls) (counter m "mmb.rcvs"));
        ("amac.callback_self_s", cat_s -. plan.secs -. forced.secs);
        ("bench.attributed_frac", ratio cat_s traced);
      ]
    @ List.map (fun (name, v) -> (name, Option.value v ~default:0.)) obs,
    [ ("traced run", o) ],
    List.filter_map (fun (name, v) -> if Option.is_none v then Some name else None) obs
  )

(* The untraced samples run the partitions on one domain; here the
   same instance runs three times on two.  [excess] = d2 - d1/2 bounds
   per-barrier cost plus imbalance from above. *)
let mega ~span (m : Measure.t) =
  let o, traced =
    span.Workloads.run "traced.run" (fun () ->
        Clock.time (fun () -> Workloads.run m.Measure.input))
  in
  let d2_runs =
    List.init 3 (fun _ ->
        span.Workloads.run "d2_run" (fun () ->
            Clock.time (fun () ->
                Workloads.run ~domains:Workloads.domains m.Measure.input)))
  in
  let d1 = run_wall_s m in
  let d2 = Stats.median (List.map snd d2_runs) in
  let windows = counter m "pdes.windows" in
  let excess = d2 -. (d1 /. 2.) in
  ( traced,
    [
      ("pdes.events_per_window", ratio (float_of_int m.Measure.events) windows);
      ("pdes.d2_run_s", d2);
      ("pdes.speedup_d2", ratio d1 d2);
      ("pdes.excess_us_per_window", ratio excess windows *. 1e6);
      ("pdes.barrier_excess_s", excess);
    ],
    ("traced run", o) :: List.map (fun (o, _) -> ("two-domain run", o)) d2_runs,
    [] )

(* FMMB's stage engines are created inside the library, so only their
   category event counts are visible from here (no wall-clock seam). *)
let fmmb ~span (m : Measure.t) =
  let sims = ref [] in
  let probe =
    { Workloads.no_probe with on_sim = (fun s -> sims := s :: !sims) }
  in
  let o, traced =
    span.Workloads.run "traced.run" (fun () ->
        Clock.time (fun () -> Workloads.run ~probe m.Measure.input))
  in
  let per_cat, _ = category_metrics !sims in
  (traced, per_cat, [ ("traced run", o) ], [])

(* The traced pass over the instance [m] measured: every per-layer
   metric as (name, unit, value); the names of those left unresolved,
   which read 0; and [m] with the pass's spans (one more sample id) and a
   failure for each of its runs that is wrong or does not repeat the
   untraced samples' events and counters. *)
let measure (m : Measure.t) =
  let spans = ref m.Measure.spans in
  let span =
    Measure.recorder spans
      ~sample:
        (1 + List.fold_left (fun acc s -> max acc s.Measure.sample) 0 !spans)
  in
  let traced, specific, runs, unresolved =
    match m.Measure.input with
    | Workloads.Serial _ -> serial ~span m
    | Workloads.Mega _ -> mega ~span m
    | Workloads.Fmmb _ -> fmmb ~span m
  in
  let counter = counter m in
  let phase name =
    match Measure.durations m.Measure.spans name with
    | [] -> 0.
    | times -> Stats.median times
  in
  let common =
    [
      ("graphs.gen_s", phase "setup.gen");
      ("graphs.dual_s", phase "setup.dual");
      ("dsim.events", float_of_int m.Measure.events);
      ( "dsim.cancel_ratio",
        ratio (counter "dsim.heap_cancelled") (counter "dsim.heap_pushes") );
      ("mmb.rcvs_per_bcast", ratio (counter "mmb.rcvs") (counter "mmb.bcasts"));
      ("bench.trace_overhead", ratio traced (run_wall_s m));
      ("bench.setup_wall_s", Measure.wall m (fun s -> s.Measure.builds));
      ("bench.run_wall_s", run_wall_s m);
      ("bench.ref_s", Measure.wall m (fun s -> [ s.Measure.ref_s ]));
    ]
    @ span.Workloads.run "partition" (fun () ->
          partition (Workloads.dual_of m.Measure.input))
  in
  let value name =
    match List.assoc_opt name specific with
    | Some v -> v
    | None -> (
        match List.assoc_opt name common with
        | Some v -> v
        | None -> counter name)
  in
  let reference =
    {
      Workloads.events = m.Measure.events;
      counters = m.Measure.counters;
      failure = None;
    }
  in
  let failures =
    List.filter_map
      (fun (what, o) ->
        Option.map
          (fun why -> what ^ ": " ^ why)
          (Measure.check ~reference o))
      runs
  in
  ( List.map (fun l -> (l.name, l.unit, value l.name)) metrics,
    unresolved,
    { m with Measure.spans = !spans; failures = m.Measure.failures @ failures }
  )
