(* Command-line front end for the simulator: single runs, parameter sweeps,
   and the executable lower bounds.

     mmb_sim run --topology line --n 40 --k 4 --scheduler adversarial
     mmb_sim run --protocol fmmb --topology geometric --n 80 --k 6
     mmb_sim lower-bound --network two-line --d 16
     mmb_sim sweep --param k --values 1,2,4,8,16 --topology line --n 30 *)

open Cmdliner

(* Host time for the outputs that report it (the campaign summary,
   --trace-wall, the engine's per-category wall gauges): monotonic seconds
   since program start.  Sys.time would be process CPU time, summed over
   every domain.  The library reads no clock itself (lint D3). *)
let wall_clock =
  let t0 = Monotonic_clock.now () in
  fun () -> Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

(* --- Shared argument definitions ---------------------------------------- *)

let topology =
  let doc = "Reliable graph G: line | ring | grid | star | geometric." in
  Arg.(value & opt string "line" & info [ "topology"; "t" ] ~docv:"TOPO" ~doc)

let n_arg =
  let doc = "Number of nodes." in
  Arg.(value & opt int 30 & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let k_arg =
  let doc = "Number of MMB messages." in
  Arg.(value & opt int 4 & info [ "messages"; "k" ] ~docv:"K" ~doc)

let gprime =
  let doc =
    "Unreliable graph G' regime: equal | r-restricted | arbitrary | greyzone \
     (greyzone forces the geometric topology)."
  in
  Arg.(value & opt string "equal" & info [ "gprime"; "g" ] ~docv:"REGIME" ~doc)

let r_arg =
  let doc = "Restriction radius for --gprime r-restricted." in
  Arg.(value & opt int 2 & info [ "radius"; "r" ] ~docv:"R" ~doc)

let extra_arg =
  let doc = "Number of extra unreliable edges." in
  Arg.(value & opt int 10 & info [ "extra" ] ~docv:"EDGES" ~doc)

let fack_arg =
  let doc = "Acknowledgment bound Fack." in
  Arg.(value & opt float 20. & info [ "fack" ] ~docv:"FACK" ~doc)

let fprog_arg =
  let doc = "Progress bound Fprog." in
  Arg.(value & opt float 1. & info [ "fprog" ] ~docv:"FPROG" ~doc)

let seed_arg =
  let doc = "Random seed (runs are reproducible from it)." in
  Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

let scheduler_arg =
  let doc = "Message scheduler: eager | random | adversarial." in
  Arg.(
    value & opt string "random" & info [ "scheduler" ] ~docv:"SCHEDULER" ~doc)

let protocol_arg =
  let doc = "Protocol: bmmb | fmmb." in
  Arg.(value & opt string "bmmb" & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc)

let dynamic_arg =
  let doc =
    "Time-varying unreliable layer: static | flap | churn | adversary \
     (bmmb only; the listed G' becomes the union over all epochs)."
  in
  Arg.(value & opt (some string) None & info [ "dynamic" ] ~docv:"KIND" ~doc)

let epoch_arg =
  let doc = "Epoch length (stability parameter T) for --dynamic." in
  Arg.(value & opt float 10. & info [ "epoch" ] ~docv:"T" ~doc)

let dyn_period_arg =
  let doc = "Half-period in epochs for --dynamic flap." in
  Arg.(value & opt int 1 & info [ "dyn-period" ] ~docv:"EPOCHS" ~doc)

let churn_rate_arg =
  let doc = "Per-epoch per-edge drop probability for --dynamic churn." in
  Arg.(value & opt float 0.2 & info [ "churn-rate" ] ~docv:"P" ~doc)

let dyn_seed_arg =
  let doc = "Seed for the churn schedule (independent of --seed)." in
  Arg.(value & opt int 0 & info [ "dyn-seed" ] ~docv:"SEED" ~doc)

let check_arg =
  let doc = "Audit the execution against the five MAC-layer axioms." in
  Arg.(value & flag & info [ "check" ] ~doc)

let trace_arg =
  let doc = "Dump the full event trace to stdout after the run." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_out_arg =
  let doc =
    "Write the event trace to FILE: a $(b,.json) suffix produces a \
     Chrome-trace-event timeline (load it at ui.perfetto.dev), anything \
     else the raw JSONL event log (the format $(b,estimate) reads)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let provenance_arg =
  let doc =
    "Write the per-message provenance DAG (which deliveries causally \
     precede each node's first receipt, with queue/MAC latency splits) to \
     FILE as JSONL."
  in
  Arg.(
    value & opt (some string) None & info [ "provenance" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a metrics JSONL snapshot (counters, latency histograms, spans, \
     engine gauges, compliance verdict) to FILE after the run."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Print a one-line frontier/heap status every INTERVAL simulated time \
     units (default 10 when the flag is given bare)."
  in
  Arg.(
    value
    & opt ~vopt:(Some 10.) (some float) None
    & info [ "progress" ] ~docv:"INTERVAL" ~doc)

let svg_arg =
  let doc =
    "Render the network to FILE as SVG (geometric/greyzone networks only)."
  in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let domains_arg =
  let doc =
    "Worker domains for the partitioned engine (bmmb only).  $(b,0) means \
     auto: resolve to the machine's recommended domain count, like \
     $(b,campaign --jobs 0).  Must not exceed the partition count."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let partitions_arg =
  let doc =
    "Partition count P for the partitioned engine.  P is a model \
     parameter: it fixes instance ids, RNG streams and delivery times, \
     while --domains only maps partitions onto workers — traces are \
     byte-identical for any domain count.  $(b,0) means auto (one \
     partition per worker domain); $(b,1) keeps the exact serial engine."
  in
  Arg.(value & opt int 0 & info [ "partitions" ] ~docv:"P" ~doc)

(* --- Network summary ---------------------------------------------------- *)

let describe_dual dual =
  let g = Graphs.Dual.reliable dual in
  (* The exact diameter is O(n·(n+m)) — unaffordable on mega (1e5+
     node) networks, where the two-BFS double sweep is exact on the
     line/grid topologies anyone runs at that scale anyway. *)
  let d =
    if Graphs.Graph.n g <= 4_096 then Graphs.Bfs.diameter g
    else Graphs.Bfs.pseudo_diameter g
  in
  Printf.printf "network: n=%d |E|=%d |E'|=%d D=%d components=%d\n"
    (Graphs.Graph.n g) (Graphs.Graph.m g)
    (Graphs.Graph.m (Graphs.Dual.unreliable dual))
    d
    (Graphs.Bfs.component_count g)

(* --- run ----------------------------------------------------------------- *)

(* Shared run metadata stamped into trace/provenance exports. *)
let run_meta ~protocol ~n ~k ~seed =
  [
    ("protocol", Dsim.Json.String protocol);
    ("n", Dsim.Json.Number (float_of_int n));
    ("k", Dsim.Json.Number (float_of_int k));
    ("seed", Dsim.Json.Number (float_of_int seed));
  ]

(* Replay a retained trace through the Perfetto collector. *)
let write_perfetto_trace tr ~n ~meta ~path =
  let col = Obs.Tracing.Sim.create ~n () in
  Dsim.Trace.iter tr (Obs.Tracing.Sim.on_entry col);
  let w = Obs.Tracing.Sim.finish col in
  Obs.Tracing.write_file ~meta w ~path;
  Printf.printf "trace written to %s (%d trace events; load at \
                 ui.perfetto.dev)\n"
    path (Obs.Tracing.event_count w)

let write_provenance tr ~n ~meta ~path =
  let p = Obs.Provenance.create ~meta ~n () in
  Dsim.Trace.iter tr (Obs.Provenance.on_entry p);
  Obs.Provenance.to_file p ~path;
  Printf.printf "provenance written to %s (%d message(s))\n" path
    (List.length (Obs.Provenance.messages p))

let run_bmmb ~dual ~dyn ~fack ~fprog ~scheduler ~k ~seed ~check ~trace
    ~trace_out ~provenance ~metrics ~progress =
  match Mmb.Scenario.build_scheduler scheduler with
  | Error e -> `Error (false, e)
  | Ok policy ->
      let rng = Dsim.Rng.create ~seed in
      let n = Graphs.Dual.n dual in
      let assignment = Mmb.Problem.random rng ~n ~k in
      let want_trace =
        check || trace || trace_out <> None || provenance <> None
      in
      (* Fail fast: the streaming monitor stops the simulation at the first
         axiom violation, printing the offending event. *)
      let sim_ref = ref None in
      let on_violation entry v =
        Fmt.epr "[monitor] %a@." Amac.Compliance.pp_violation v;
        (match entry with
        | Some e -> Fmt.epr "[monitor] offending event: %a@." Dsim.Trace.pp_entry e
        | None -> ());
        match !sim_ref with Some sim -> Dsim.Sim.stop sim | None -> ()
      in
      let obs =
        if metrics <> None || progress <> None then
          Some
            (Obs.Observer.create ~n ~dual ~fack ~fprog ~on_violation ?dyn
               ~meta:
                 [
                   ("protocol", Dsim.Json.String "bmmb");
                   ("scheduler", Dsim.Json.String scheduler);
                   ("n", Dsim.Json.Number (float_of_int n));
                   ("k", Dsim.Json.Number (float_of_int k));
                   ("fack", Dsim.Json.Number fack);
                   ("fprog", Dsim.Json.Number fprog);
                   ("seed", Dsim.Json.Number (float_of_int seed));
                 ]
               ())
        else None
      in
      let setup sim =
        sim_ref := Some sim;
        (* Wall time is injected from outside the library (lint rule D3);
           it only feeds volatile gauges, never the default export. *)
        Dsim.Sim.set_wall_clock sim wall_clock;
        match (obs, progress) with
        | Some o, Some interval ->
            let interval = if interval <= 0. then 10. else interval in
            let rec tick () =
              print_endline (Obs.Observer.progress_line o ~sim);
              (* Only reschedule while other work is pending, so the ticker
                 never keeps a drained simulation alive. *)
              if Dsim.Sim.pending sim > 0 then
                ignore
                  (Dsim.Sim.schedule ~cat:"obs.progress" sim ~delay:interval
                     tick)
            in
            ignore (Dsim.Sim.schedule_at ~cat:"obs.progress" sim ~time:0. tick)
        | _ -> ()
      in
      let res =
        Obs.Run.bmmb ~dual ~fack ~fprog ~policy ~assignment ~seed
          ~check_compliance:want_trace ?dyn ?obs ~setup ()
      in
      (match (obs, metrics) with
      | Some o, Some path ->
          Obs.Observer.to_file o path;
          Printf.printf "metrics written to %s\n" path
      | _ -> ());
      describe_dual dual;
      Printf.printf "protocol: BMMB, scheduler: %s, Fack=%g, Fprog=%g\n"
        scheduler fack fprog;
      Printf.printf "complete: %b\ntime: %g\nbound: %g (time/bound %.2f)\n"
        res.Mmb.Runner.complete res.Mmb.Runner.time res.Mmb.Runner.upper_bound
        (if res.Mmb.Runner.upper_bound > 0. then
           res.Mmb.Runner.time /. res.Mmb.Runner.upper_bound
         else 0.);
      Printf.printf "bcasts: %d, rcvs: %d, forced progress deliveries: %d\n"
        res.Mmb.Runner.bcasts res.Mmb.Runner.rcvs res.Mmb.Runner.forced;
      Printf.printf "engine: %d events executed\n" res.Mmb.Runner.events_executed;
      (match dyn with
      | None -> ()
      | Some d ->
          let churned =
            match Option.bind obs Obs.Observer.monitor with
            | Some m -> Amac.Compliance.churned_count m
            | None -> 0
          in
          Printf.printf
            "dynamic: kind=%s T=%g epochs=%d refreshes=%d churned-deliveries=%d\n"
            (Dyn.Schedule.kind_name (Dyn.Dual.schedule d))
            (Dyn.Schedule.epoch_len (Dyn.Dual.schedule d))
            (Dyn.Dual.epoch d + 1)
            (Dyn.Dual.refreshes d) churned);
      if check then
        if res.Mmb.Runner.compliance_violations = [] then
          print_endline "compliance: OK (all five axioms hold)"
        else begin
          print_endline "compliance: VIOLATIONS";
          List.iter
            (fun v -> Fmt.pr "  %a@." Amac.Compliance.pp_violation v)
            res.Mmb.Runner.compliance_violations
        end;
      (match (res.Mmb.Runner.trace, trace, trace_out) with
      | Some tr, true, _ -> Fmt.pr "%a@." Dsim.Trace.pp tr
      | _ -> ());
      (match (res.Mmb.Runner.trace, trace_out) with
      | Some tr, Some path when Filename.check_suffix path ".json" ->
          write_perfetto_trace tr ~n
            ~meta:(run_meta ~protocol:"bmmb" ~n ~k ~seed)
            ~path
      | Some tr, Some path ->
          Dsim.Trace_io.write_file tr ~path;
          Printf.printf "trace written to %s (%d events)\n" path
            (Dsim.Trace.length tr)
      | _ -> ());
      (match (res.Mmb.Runner.trace, provenance) with
      | Some tr, Some path ->
          write_provenance tr ~n
            ~meta:(run_meta ~protocol:"bmmb" ~n ~k ~seed)
            ~path
      | _ -> ());
      ignore want_trace;
      `Ok ()

(* BMMB on the horizon-parallel engine (lib/pdes).  Reached only when the
   resolved partition count exceeds 1, after {!Mmb.Scenario.check_spec}
   has applied the engine's limits; the serial-engine observability
   surface (compliance checker, Perfetto export, provenance, metrics,
   progress ticker) stays with [run_bmmb]. *)
let run_bmmb_parallel ~dual ~dyn_spec ~fack ~fprog ~k ~seed ~partitions
    ~domains ~check ~trace ~trace_out ~provenance ~metrics ~progress =
  let unsupported =
    List.filter_map
      (fun (on, flag) -> if on then Some flag else None)
      [
        (check, "--check");
        (trace, "--trace");
        (provenance <> None, "--provenance");
        (metrics <> None, "--metrics");
        (progress <> None, "--progress");
      ]
  in
  if unsupported <> [] then
    `Error
      ( false,
        Printf.sprintf
          "%s require%s the serial engine (--partitions 1): the partitioned \
           engine streams its trace to disk instead of retaining it"
          (String.concat ", " unsupported)
          (match unsupported with [ _ ] -> "s" | _ -> "") )
  else if
    match trace_out with
    | Some path -> Filename.check_suffix path ".json"
    | None -> false
  then
    `Error
      ( false,
        "Perfetto export (--trace-out *.json) requires the serial engine \
         (--partitions 1); use a non-.json suffix for the raw JSONL log" )
  else
    (* One private wrapper per partition, built from the checked spec. *)
    let mk_dyn =
      Option.map
        (fun d () ->
          match Mmb.Scenario.build_dyn ~dual d with
          | Ok dd -> dd
          | Error e -> failwith e)
        dyn_spec
    in
    let rng = Dsim.Rng.create ~seed in
    let n = Graphs.Dual.n dual in
    let assignment = Mmb.Problem.random rng ~n ~k in
    let r =
      Mmb.Runner.run_bmmb_pdes ~dual ~fack ~fprog
        ~policy:(Amac.Schedulers.random_compliant ())
        ~assignment ~seed ~partitions ~domains ?mk_dyn ?trace_out ()
    in
    describe_dual dual;
    Printf.printf
      "protocol: BMMB (partitioned engine), Fack=%g, Fprog=%g, partitions=%d, \
       domains=%d\n"
      fack fprog r.Mmb.Runner.pd_partitions r.Mmb.Runner.pd_domains;
    Printf.printf "complete: %b\ntime: %g\nbound: %g (time/bound %.2f)\n"
      r.Mmb.Runner.pd_complete r.Mmb.Runner.pd_time r.Mmb.Runner.pd_upper_bound
      (if r.Mmb.Runner.pd_upper_bound > 0. then
         r.Mmb.Runner.pd_time /. r.Mmb.Runner.pd_upper_bound
       else 0.);
    Printf.printf "bcasts: %d, rcvs: %d, acks: %d\n" r.Mmb.Runner.pd_bcasts
      r.Mmb.Runner.pd_rcvs r.Mmb.Runner.pd_acks;
    Printf.printf "deliveries: %d (%d across partitions, %d cut edges)\n"
      r.Mmb.Runner.pd_deliveries r.Mmb.Runner.pd_remote
      r.Mmb.Runner.pd_cut_edges;
    Printf.printf
      "engine: %d events executed, %d barrier windows, heap high water %d\n"
      r.Mmb.Runner.pd_events r.Mmb.Runner.pd_windows
      r.Mmb.Runner.pd_heap_high_water;
    Option.iter
      (fun path ->
        Printf.printf "trace written to %s (%d events)\n" path
          r.Mmb.Runner.pd_trace_entries)
      trace_out;
    `Ok ()

let run_fmmb ~dual ~fprog ~k ~seed ~trace_out ~provenance ~metrics =
  let rng = Dsim.Rng.create ~seed in
  let n = Graphs.Dual.n dual in
  let assignment = Mmb.Problem.random rng ~n ~k in
  let meta = run_meta ~protocol:"fmmb" ~n ~k ~seed in
  (* FMMB retains no trace (staged engines restart clocks), so trace and
     provenance collectors subscribe to the lifecycle stream live. *)
  let tcol =
    match trace_out with
    | Some path when Filename.check_suffix path ".json" ->
        Some (path, Obs.Tracing.Sim.create ~n ())
    | Some path ->
        Printf.eprintf
          "note: fmmb --trace-out %s ignored (only .json Perfetto output \
           is available for fmmb)\n"
          path;
        None
    | None -> None
  in
  let pcol =
    Option.map (fun path -> (path, Obs.Provenance.create ~meta ~n ()))
      provenance
  in
  let attach =
    match (tcol, pcol) with
    | None, None -> None
    | _ ->
        Some
          (fun tr ->
            Option.iter (fun (_, c) -> Obs.Tracing.Sim.attach c tr) tcol;
            Option.iter (fun (_, p) -> Obs.Provenance.attach p tr) pcol)
  in
  (* Span-only observer: FMMB's staged engines restart uids/clocks, so the
     streaming compliance checker does not apply (see Amac.Compliance). *)
  let obs =
    match metrics with
    | None -> None
    | Some _ ->
        Some
          (Obs.Observer.create ~n
             ~meta:
               [
                 ("protocol", Dsim.Json.String "fmmb");
                 ("n", Dsim.Json.Number (float_of_int n));
                 ("k", Dsim.Json.Number (float_of_int k));
                 ("fprog", Dsim.Json.Number fprog);
                 ("seed", Dsim.Json.Number (float_of_int seed));
               ]
             ())
  in
  let res =
    Obs.Run.fmmb ~dual ~fprog ~c:2.
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~assignment ~seed ?obs ?attach ()
  in
  (match (obs, metrics) with
  | Some o, Some path ->
      Obs.Observer.to_file o path;
      Printf.printf "metrics written to %s\n" path
  | _ -> ());
  Option.iter
    (fun (path, c) ->
      let w = Obs.Tracing.Sim.finish c in
      Obs.Tracing.write_file ~meta w ~path;
      Printf.printf "trace written to %s (%d trace events; load at \
                     ui.perfetto.dev)\n"
        path (Obs.Tracing.event_count w))
    tcol;
  Option.iter
    (fun (path, p) ->
      Obs.Provenance.to_file p ~path;
      Printf.printf "provenance written to %s (%d message(s))\n" path
        (List.length (Obs.Provenance.messages p)))
    pcol;
  describe_dual dual;
  let f = res.Mmb.Runner.fmmb in
  Printf.printf "protocol: FMMB (enhanced model), Fprog=%g\n" fprog;
  Printf.printf
    "complete: %b\nrounds: %d (mis %d + gather %d + spread %d)\ntime: %g\n"
    f.Mmb.Fmmb.complete f.Mmb.Fmmb.total_rounds f.Mmb.Fmmb.rounds_mis
    f.Mmb.Fmmb.rounds_gather f.Mmb.Fmmb.rounds_spread f.Mmb.Fmmb.time;
  Printf.printf "MIS: size %d, valid %b\n" f.Mmb.Fmmb.mis_size
    f.Mmb.Fmmb.mis_valid;
  `Ok ()

let run_cmd =
  let action protocol topology gprime n k r extra fack fprog seed scheduler
      check trace trace_out provenance metrics progress svg dynamic epoch
      dyn_period churn_rate dyn_seed domains partitions =
    (* [--domains 0] auto-resolves like [campaign --jobs 0].  Explicit
       positive counts are honored even beyond the core count: traces
       are identical for any mapping, and determinism gates need real
       multi-domain runs even on small machines.  The partition count
       then defaults to one partition per worker. *)
    let domains =
      if domains <= 0 then Exec.Pool.resolve_jobs ~requested:domains
      else domains
    in
    let partitions = if partitions <= 0 then domains else partitions in
    let dyn_spec =
      Option.map
        (fun kind ->
          {
            Mmb.Scenario.dyn_kind = kind;
            dyn_epoch = epoch;
            dyn_period;
            dyn_churn = churn_rate;
            dyn_seed;
          })
        dynamic
    in
    (* The flags describe a one-run scenario: check it with the loader's
       rules before anything is built. *)
    let checked =
      let ( let* ) = Result.bind in
      let* protocol =
        match protocol with
        | "bmmb" -> Ok `Bmmb
        | "fmmb" -> Ok `Fmmb
        | other -> Error (Printf.sprintf "unknown protocol %S" other)
      in
      let* () =
        Mmb.Scenario.check_spec
          {
            Mmb.Scenario.name = "run";
            protocol;
            topology;
            n;
            gprime;
            r;
            extra;
            k;
            fack;
            fprog;
            seed;
            scheduler;
            arrivals = Mmb.Scenario.Batch;
            check;
            repeat = 1;
            dynamic = dyn_spec;
            domains;
            partitions;
          }
      in
      Mmb.Scenario.build_dual ~topology ~gprime ~n ~r ~extra ~seed
    in
    match checked with
    | Error e -> `Error (false, e)
    | Ok dual -> (
        (match svg with
        | None -> ()
        | Some path -> (
            match Graphs.Svg.render dual with
            | Some doc ->
                Graphs.Svg.write ~path doc;
                Printf.printf "network rendered to %s\n" path
            | None ->
                prerr_endline
                  "note: --svg requires an embedded (geometric/greyzone) \
                   network; skipped"));
        if partitions > 1 then
          run_bmmb_parallel ~dual ~dyn_spec ~fack ~fprog ~k ~seed ~partitions
            ~domains ~check ~trace ~trace_out ~provenance ~metrics ~progress
        else if protocol = "fmmb" then
          run_fmmb ~dual ~fprog ~k ~seed ~trace_out ~provenance ~metrics
        else
          let dyn =
            match dyn_spec with
            | None -> Ok None
            | Some d -> Result.map Option.some (Mmb.Scenario.build_dyn ~dual d)
          in
          match dyn with
          | Error e -> `Error (false, e)
          | Ok dyn ->
              run_bmmb ~dual ~dyn ~fack ~fprog ~scheduler ~k ~seed ~check
                ~trace ~trace_out ~provenance ~metrics ~progress)
  in
  let term =
    Term.(
      ret
        (const action $ protocol_arg $ topology $ gprime $ n_arg $ k_arg
       $ r_arg $ extra_arg $ fack_arg $ fprog_arg $ seed_arg $ scheduler_arg
       $ check_arg $ trace_arg $ trace_out_arg $ provenance_arg $ metrics_arg
       $ progress_arg $ svg_arg $ dynamic_arg $ epoch_arg $ dyn_period_arg
       $ churn_rate_arg $ dyn_seed_arg $ domains_arg $ partitions_arg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one MMB simulation and print its metrics.")
    term

(* --- lower-bound --------------------------------------------------------- *)

let lower_bound_cmd =
  let network =
    let doc = "Lower-bound construction: two-line | choke." in
    Arg.(value & opt string "two-line" & info [ "network" ] ~docv:"NET" ~doc)
  in
  let d_arg =
    let doc = "Line length D for the two-line network." in
    Arg.(value & opt int 16 & info [ "diameter"; "d" ] ~docv:"D" ~doc)
  in
  let action network d k fack fprog =
    let print (res : Mmb.Lower_bound.result) =
      Printf.printf
        "time: %g\nfloor: %g (achieved: %b)\nupper bound: %g\ncomplete: %b\n"
        res.Mmb.Lower_bound.time res.Mmb.Lower_bound.floor
        res.Mmb.Lower_bound.achieved res.Mmb.Lower_bound.upper
        res.Mmb.Lower_bound.complete;
      `Ok ()
    in
    (* Range checks before anything is built: the constructions and the
       MAC would raise on these. *)
    if not (fprog > 0. && fprog <= fack) then
      `Error (false, "need 0 < fprog <= fack")
    else
      match network with
      | "two-line" when d < 2 -> `Error (false, "need d >= 2")
      | "two-line" -> print (Mmb.Lower_bound.run_two_line ~d ~fack ~fprog ())
      | "choke" when k < 1 -> `Error (false, "need k >= 1")
      | "choke" -> print (Mmb.Lower_bound.run_choke ~k ~fack ~fprog ())
      | other -> `Error (false, Printf.sprintf "unknown network %S" other)
  in
  let term =
    Term.(
      ret (const action $ network $ d_arg $ k_arg $ fack_arg $ fprog_arg))
  in
  Cmd.v
    (Cmd.info "lower-bound"
       ~doc:
         "Run the Section 3.3 adversarial constructions (Figure 2 two-line, \
          Lemma 3.18 choke).")
    term

(* --- sweep ---------------------------------------------------------------- *)

let sweep_cmd =
  let param =
    let doc = "Swept parameter: k | n | r | fack." in
    Arg.(value & opt string "k" & info [ "param" ] ~docv:"PARAM" ~doc)
  in
  let values =
    let doc = "Comma-separated values for the swept parameter." in
    Arg.(
      value
      & opt string "1,2,4,8,16"
      & info [ "values" ] ~docv:"V1,V2,..." ~doc)
  in
  let action param values topology gprime n k r extra fack fprog seed
      scheduler =
    let ( let* ) = Result.bind in
    let rec all f = function
      | [] -> Ok []
      | x :: rest ->
          let* y = f x in
          let* ys = all f rest in
          Ok (y :: ys)
    in
    (* Everything is checked before the table header prints: the param,
       every value, every point's ranges, then every point's network and
       the scheduler, so a bad flag fails the command up front. *)
    let checked =
      let* () =
        if List.mem param [ "k"; "n"; "r"; "fack" ] then Ok ()
        else
          Error
            (Printf.sprintf "sweep: unknown param %S (known: k, n, r, fack)"
               param)
      in
      let* parsed =
        all
          (fun s ->
            let s = String.trim s in
            match int_of_string_opt s with
            | Some v -> Ok v
            | None ->
                Error (Printf.sprintf "sweep: values must be integers, got %S" s))
          (String.split_on_char ',' values)
      in
      let points =
        List.map
          (fun v ->
            ( v,
              (if param = "n" then v else n),
              (if param = "k" then v else k),
              (if param = "r" then v else r),
              if param = "fack" then float_of_int v else fack ))
          parsed
      in
      let* () =
        all
          (fun (_, n, k, r, fack) ->
            Mmb.Scenario.check_ranges ~n ~k ~r ~extra ~fack ~fprog)
          points
        |> Result.map ignore
      in
      let* _ = Mmb.Scenario.build_scheduler scheduler in
      all
        (fun (v, n, k, r, fack) ->
          let* dual =
            Mmb.Scenario.build_dual ~topology ~gprime ~n ~r ~extra ~seed
          in
          Ok (v, dual, k, fack))
        points
    in
    match checked with
    | Error e -> `Error (false, e)
    | Ok points ->
        Printf.printf "%8s  %10s  %10s  %10s\n" param "time" "bound" "ratio";
        List.iter
          (fun (v, dual, k, fack) ->
            (* A fresh policy per point: schedulers may carry state. *)
            let policy =
              Result.get_ok (Mmb.Scenario.build_scheduler scheduler)
            in
            let rng = Dsim.Rng.create ~seed in
            let assignment =
              Mmb.Problem.random rng ~n:(Graphs.Dual.n dual) ~k
            in
            let res =
              Obs.Run.bmmb ~dual ~fack ~fprog ~policy ~assignment ~seed ()
            in
            Printf.printf "%8d  %10.1f  %10.1f  %10.2f\n" v
              res.Mmb.Runner.time res.Mmb.Runner.upper_bound
              (if res.Mmb.Runner.upper_bound > 0. then
                 res.Mmb.Runner.time /. res.Mmb.Runner.upper_bound
               else 0.))
          points;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ param $ values $ topology $ gprime $ n_arg $ k_arg
       $ r_arg $ extra_arg $ fack_arg $ fprog_arg $ seed_arg $ scheduler_arg))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep one parameter of a BMMB simulation.")
    term

(* --- online --------------------------------------------------------------- *)

let online_cmd =
  let rate_arg =
    let doc = "Poisson arrival rate (messages per time unit)." in
    Arg.(value & opt float 0.01 & info [ "rate" ] ~docv:"RATE" ~doc)
  in
  let action topology gprime n k r extra fack fprog seed scheduler rate =
    match
      if not (rate > 0.) then Error "need rate > 0"
      else
        Result.bind (Mmb.Scenario.check_ranges ~n ~k ~r ~extra ~fack ~fprog)
          (fun () ->
            Mmb.Scenario.build_dual ~topology ~gprime ~n ~r ~extra ~seed)
    with
    | Error e -> `Error (false, e)
    | Ok dual -> (
        match Mmb.Scenario.build_scheduler scheduler with
        | Error e -> `Error (false, e)
        | Ok policy ->
            let rng = Dsim.Rng.create ~seed in
            let arrivals =
              Mmb.Problem.poisson_arrivals rng ~n:(Graphs.Dual.n dual) ~k
                ~rate
            in
            let res =
              Obs.Run.bmmb_online ~dual ~fack ~fprog ~policy ~arrivals
                ~seed ()
            in
            describe_dual dual;
            Printf.printf
              "online BMMB: rate=%g, k=%d\ncomplete: %b\nmakespan: %g\n" rate
              k res.Mmb.Runner.complete' res.Mmb.Runner.makespan;
            let latencies = List.map snd res.Mmb.Runner.latencies in
            (match latencies with
            | [] -> print_endline "no completed messages"
            | _ ->
                let s = Dsim.Stats.summarize latencies in
                Fmt.pr "latency: %a@." Dsim.Stats.pp_summary s);
            `Ok ())
  in
  let term =
    Term.(
      ret
        (const action $ topology $ gprime $ n_arg $ k_arg $ r_arg $ extra_arg
       $ fack_arg $ fprog_arg $ seed_arg $ scheduler_arg $ rate_arg))
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:"Run BMMB with Poisson online arrivals and report latencies.")
    term

(* --- radio ------------------------------------------------------------------ *)

let radio_cmd =
  let contenders_arg =
    let doc = "Number of contending senders on the star." in
    Arg.(value & opt int 16 & info [ "contenders"; "m" ] ~docv:"M" ~doc)
  in
  let action m seed =
    if m < 1 then `Error (false, "need contenders >= 1")
    else
      let dual = Graphs.Dual.of_equal (Graphs.Gen.star (m + 1)) in
      let rng = Dsim.Rng.create ~seed in
      let params = Radio.Decay.default_params ~n:(m + 1) ~max_contention:m in
      let mac = Radio.Decay.create ~dual ~params ~rng () in
      let h = Radio.Decay.handle mac in
      let first_any = ref None in
      let got = Hashtbl.create 16 in
      h.Amac.Mac_handle.h_attach ~node:0
        {
          Amac.Mac_intf.on_rcv =
            (fun ~src:_ payload ->
              if !first_any = None then
                first_any := Some (Radio.Decay.slot mac);
              if not (Hashtbl.mem got payload) then
                Hashtbl.replace got payload (Radio.Decay.slot mac));
          on_ack = (fun _ -> ());
        };
      for v = 1 to m do
        h.Amac.Mac_handle.h_attach ~node:v
          {
            Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ());
            on_ack = (fun _ -> ());
          }
      done;
      for v = 1 to m do
        h.Amac.Mac_handle.h_bcast ~node:v v
      done;
      ignore
        (Radio.Decay.run mac ~max_slots:10_000_000 ~stop:(fun () ->
             Hashtbl.length got = m));
      Printf.printf
        "decay MAC on a star with %d contenders (implemented Fack = %g slots)\n"
        m (Radio.Decay.nominal_fack mac);
      (match !first_any with
      | Some s ->
          Printf.printf "hub heard SOMETHING after %d slots (Fprog-like)\n" s
      | None -> print_endline "hub heard nothing");
      let slowest =
        Dsim.Tbl.sorted_fold ~cmp:Int.compare (fun _ s acc -> max s acc) got 0
      in
      Printf.printf "hub heard the SLOWEST specific message after %d slots\n"
        slowest;
      Printf.printf "transmissions: %d, collisions: %d\n"
        (Radio.Decay.transmissions mac)
        (Radio.Decay.collisions mac);
      `Ok ()
  in
  let term = Term.(ret (const action $ contenders_arg $ seed_arg)) in
  Cmd.v
    (Cmd.info "radio"
       ~doc:
         "Measure the Fprog << Fack gap of the Decay MAC implementation on \
          a contention star (footnote 2).")
    term

(* --- estimate ---------------------------------------------------------------- *)

let estimate_cmd =
  let trace_file =
    let doc = "JSONL trace file (produced with run --trace-out)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let action file topology gprime n r extra seed =
    match Mmb.Scenario.build_dual ~topology ~gprime ~n ~r ~extra ~seed with
    | Error e -> `Error (false, e)
    | Ok dual -> (
        match Dsim.Trace_io.read_file ~path:file with
        | Error e -> `Error (false, "trace: " ^ e)
        | Ok entries ->
            let tr = Dsim.Trace.create () in
            List.iter
              (fun { Dsim.Trace.time; event } ->
                Dsim.Trace.record tr ~time event)
              entries;
            let est = Amac.Estimate.estimate ~dual tr in
            Fmt.pr
              "estimated MAC parameters (lower bounds from the trace):@.  %a@."
              Amac.Estimate.pp est;
            `Ok ())
  in
  let term =
    Term.(
      ret
        (const action $ trace_file $ topology $ gprime $ n_arg $ r_arg
       $ extra_arg $ seed_arg))
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Estimate Fack/Fprog from a recorded trace (give the same network \
          flags the run used).")
    term

(* --- trace-validate ---------------------------------------------------------- *)

let trace_validate_cmd =
  let files_arg =
    let doc =
      "Files to validate: *.json as Chrome trace-event documents \
       (mmb-trace/1), everything else as provenance JSONL \
       (mmb-provenance/1)."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let action files =
    let rec go = function
      | [] -> `Ok ()
      | file :: rest -> (
          let verdict =
            if Filename.check_suffix file ".json" then
              Result.map
                (Printf.sprintf "%d trace events")
                (Obs.Tracing.validate_file ~path:file)
            else
              Result.map
                (Printf.sprintf "%d provenance lines")
                (Obs.Provenance.validate_file ~path:file)
          in
          match verdict with
          | Ok desc ->
              Printf.printf "%s: OK (%s)\n" file desc;
              go rest
          | Error e -> `Error (false, Printf.sprintf "%s: %s" file e))
    in
    go files
  in
  let term = Term.(ret (const action $ files_arg)) in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:
         "Check trace/provenance exports for schema and shape (the \
          verify.sh trace smoke gate).")
    term

(* --- exec ------------------------------------------------------------------- *)

let exec_cmd =
  let file_arg =
    let doc = "JSON scenario file (see Mmb.Scenario for the schema)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let json_out_arg =
    let doc = "Also write machine-readable results to FILE." in
    Arg.(
      value & opt (some string) None & info [ "json-out" ] ~docv:"FILE" ~doc)
  in
  let action file json_out =
    let text =
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Mmb.Scenario.expand_string text with
    | Error e -> `Error (false, "scenario: " ^ e)
    | Ok specs -> (
        let rec run_all acc = function
          | [] -> Ok (List.rev acc)
          | spec :: rest -> (
              match Mmb.Scenario.execute spec with
              | Error e -> Error e
              | Ok runs ->
                  print_string (Mmb.Scenario.report spec runs);
                  print_newline ();
                  run_all ((spec, runs) :: acc) rest)
        in
        match run_all [] specs with
        | Error e -> `Error (false, "scenario: " ^ e)
        | Ok outcomes ->
            (match json_out with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () ->
                    output_string oc
                      (Dsim.Json.to_string
                         (Dsim.Json.List
                            (List.map
                               (fun (spec, runs) ->
                                 Mmb.Scenario.result_json spec runs)
                               outcomes))));
                Printf.printf "results written to %s\n" path);
            `Ok ())
  in
  let term = Term.(ret (const action $ file_arg $ json_out_arg)) in
  Cmd.v
    (Cmd.info "exec"
       ~doc:"Run a JSON scenario file (config-driven experiments).")
    term

(* --- campaign ---------------------------------------------------------------- *)

let campaign_cmd =
  let paths_arg =
    let doc =
      "Scenario files, or directories whose *.json files are taken in \
       sorted order."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"PATH" ~doc)
  in
  let jobs_arg =
    let doc =
      "Fan scenarios across N domains (clamped to the machine's cores; the \
       merge is deterministic, so output is identical for any N)."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let cache_dir_arg =
    let doc = "Content-addressed result cache directory." in
    Arg.(
      value
      & opt string (Filename.concat "_campaign" "cache")
      & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache_arg =
    let doc = "Run every scenario even if cached." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let salt_arg =
    let doc =
      "Code-version salt folded into every job digest (default: a digest \
       of this binary, so rebuilds invalidate the cache automatically)."
    in
    Arg.(value & opt (some string) None & info [ "salt" ] ~docv:"SALT" ~doc)
  in
  let out_arg =
    let doc = "Write machine-readable results (JSONL, job order) to FILE." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Write the deterministic job timeline (virtual time counted in \
       engine events) to FILE as a Chrome trace — byte-identical for any \
       --jobs N and any cache state."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let trace_wall_arg =
    let doc =
      "Write the wall-clock worker timeline (one track per domain, \
       executed jobs only) to FILE as a Chrome trace.  Volatile by \
       nature: placement and durations differ run to run."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-wall" ] ~docv:"FILE" ~doc)
  in
  let scenario_files paths =
    let rec gather acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest when Sys.is_directory p ->
          let inside =
            Sys.readdir p |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".json")
            |> List.sort String.compare
            |> List.map (Filename.concat p)
          in
          if inside = [] then
            Error (Printf.sprintf "%s: no *.json scenario files" p)
          else gather (List.rev_append inside acc) rest
      | f :: rest -> gather (f :: acc) rest
    in
    gather [] paths
  in
  let action paths jobs cache_dir no_cache salt out trace_out trace_wall =
    let ( let* ) = Result.bind in
    let outcome =
      let* files = scenario_files paths in
      let* specs =
        List.fold_left
          (fun acc file ->
            let* acc = acc in
            let* specs = Mmb.Scenario.load_file file in
            Ok (acc @ specs))
          (Ok []) files
      in
      let job_of spec =
        Exec.Job.make ~spec:(Mmb.Scenario.spec_to_json spec) (fun () ->
            match Mmb.Scenario.execute spec with
            | Ok runs ->
                Exec.Sink.emit (Mmb.Scenario.report spec runs);
                Exec.Sink.emit "\n";
                Mmb.Scenario.result_json spec runs
            | Error e ->
                Exec.Sink.printf "scenario %s failed: %s\n\n"
                  spec.Mmb.Scenario.name e;
                Dsim.Json.Obj
                  [
                    ("name", Dsim.Json.String spec.Mmb.Scenario.name);
                    ("error", Dsim.Json.String e);
                  ])
      in
      let job_list = List.map job_of specs in
      let salt =
        match salt with
        | Some s -> s
        | None -> (
            try Digest.to_hex (Digest.file Sys.executable_name)
            with _ -> "unsalted")
      in
      let cache =
        if no_cache then None else Some (Exec.Cache.create ~dir:cache_dir)
      in
      let manifest =
        let key =
          Digest.to_hex
            (Digest.string
               (String.concat "\n"
                  (List.map (fun j -> Exec.Job.digest ~salt j) job_list)))
        in
        Filename.concat "_campaign" (Printf.sprintf "campaign-%s.jsonl" key)
      in
      let jobs = Exec.Pool.resolve_jobs ~requested:jobs in
      let outcomes, stats =
        Exec.Campaign.run ~jobs ~salt ?cache ~manifest ~clock:wall_clock
          job_list
      in
      Array.iter (fun o -> print_string o.Exec.Campaign.output) outcomes;
      (match out with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              Array.iter
                (fun o ->
                  output_string oc
                    (Dsim.Json.to_string o.Exec.Campaign.result);
                  output_char oc '\n')
                outcomes);
          Printf.printf "results written to %s\n" path);
      (match trace_out with
      | None -> ()
      | Some path ->
          Obs.Tracing.write_file
            ~meta:[ ("campaign", Dsim.Json.String "virtual") ]
            (Exec.Telemetry.virtual_trace outcomes)
            ~path;
          Printf.printf "campaign trace written to %s (load at \
                         ui.perfetto.dev)\n"
            path);
      (match trace_wall with
      | None -> ()
      | Some path ->
          Obs.Tracing.write_file
            ~meta:[ ("campaign", Dsim.Json.String "wall") ]
            (Exec.Telemetry.wall_trace outcomes)
            ~path;
          Printf.printf "worker timeline written to %s\n" path);
      Printf.eprintf "%s\n" (Exec.Telemetry.summary ~jobs stats);
      Ok ()
    in
    match outcome with
    | Ok () -> `Ok ()
    | Error e -> `Error (false, "campaign: " ^ e)
  in
  let term =
    Term.(
      ret
        (const action $ paths_arg $ jobs_arg $ cache_dir_arg $ no_cache_arg
       $ salt_arg $ out_arg $ trace_out_arg $ trace_wall_arg))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a batch of scenario files as a parallel campaign: \
          deterministic merge, content-addressed cache, resumable \
          checkpoints.")
    term

let () =
  let doc =
    "Simulator for multi-message broadcast over abstract MAC layers with \
     unreliable links (Ghaffari, Kantor, Lynch, Newport, PODC 2014)."
  in
  let info = Cmd.info "mmb_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; lower_bound_cmd; sweep_cmd; online_cmd; radio_cmd;
            exec_cmd; campaign_cmd; estimate_cmd; trace_validate_cmd ]))
