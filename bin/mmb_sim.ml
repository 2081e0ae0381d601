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

(* The scenario flags of [keys], each one entry of Mmb.Scenario.fields,
   read into a one-cell scenario object: a given flag is one member, which
   Mmb.Scenario.of_json or expand reads and checks as it would a file's. *)
let scenario keys =
  let member key =
    let f = List.find (fun f -> f.Mmb.Scenario.key = key) Mmb.Scenario.fields in
    let docv = String.uppercase_ascii (List.hd f.flags) in
    let i = Arg.info f.flags ~docv ~doc:f.doc in
    let opt c json =
      Term.(
        const (Option.map json)
        $ Arg.(value & opt (some ~none:f.default c) None i))
    in
    match f.kind with
    | `Int -> opt Arg.int (fun i -> Dsim.Json.Number (float_of_int i))
    | `Float -> opt Arg.float (fun x -> Dsim.Json.Number x)
    | `String -> opt Arg.string (fun s -> Dsim.Json.String s)
    | `Bool ->
        Term.(
          const (fun b -> if b then Some (Dsim.Json.Bool true) else None)
          $ Arg.(value & flag i))
  in
  List.fold_left
    (fun json key ->
      Term.(
        const (fun json -> function
          | Some v -> Mmb.Scenario.put json key v | None -> json)
        $ json $ member key))
    (Term.const (Dsim.Json.Obj [])) keys

(* The network and MAC fields every simulating subcommand takes. *)
let cell =
  [ "topology"; "gprime"; "n"; "k"; "r"; "extra"; "fack"; "fprog"; "seed";
    "scheduler" ]

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
     units (default 10 when the flag is given bare).  Serial BMMB only: \
     its ticker is an event in the one engine's heap."
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

(* A file [run] writes from the live event stream of whichever engine
   runs (the serial engine's MAC trace, the partitioned engine's merged
   trace, or FMMB's round engine's) and the run's delivery ledger:
   [subscribe] before the run, [write] after it. *)
type surface = {
  subscribe : Mmb.Problem.tracker -> Dsim.Trace.t -> unit;
  write : unit -> unit;
}

let trace_surface ~meta path =
  if Filename.check_suffix path ".json" then
    let c = Obs.Tracing.Sim.create () in
    {
      subscribe = Obs.Tracing.Sim.attach c;
      write =
        (fun () ->
          let w = Obs.Tracing.Sim.finish c in
          Obs.Tracing.write_file ~meta w ~path;
          Printf.printf
            "trace written to %s (%d trace events; load at ui.perfetto.dev)\n"
            path (Obs.Tracing.event_count w));
    }
  else
    let sink = Dsim.Trace_io.sink_create ~path in
    {
      subscribe =
        (fun _ tr -> Dsim.Trace.subscribe tr (Dsim.Trace_io.sink_write sink));
      write =
        (fun () ->
          Dsim.Trace_io.sink_close sink;
          Printf.printf "trace written to %s (%d events)\n" path
            (Dsim.Trace_io.sink_written sink));
    }

let provenance_surface ~meta ~n path =
  let p = Obs.Provenance.create ~meta ~n () in
  {
    subscribe = Obs.Provenance.attach p;
    write =
      (fun () ->
        Obs.Provenance.to_file p ~path;
        Printf.printf "provenance written to %s (%d message(s))\n" path
          (List.length (Obs.Provenance.messages p)));
  }

let print_bound ~complete ~time ~bound =
  Printf.printf "complete: %b\ntime: %g\nbound: %g (time/bound %.2f)\n"
    complete time bound
    (if bound > 0. then time /. bound else 0.)

let run_cmd =
  let action json trace trace_out provenance metrics progress svg =
    (* [--domains 0] auto-resolves like [campaign --jobs 0], on the flag
       only: a file refuses 0, so a cell's cache key never depends on the
       host.  Explicit counts are honored even beyond the core count:
       traces are identical for any mapping, and determinism gates need
       real multi-domain runs even on small machines. *)
    let json =
      match Dsim.Json.member_opt json "domains" with
      | Some (Dsim.Json.Number 0.) ->
          Mmb.Scenario.put json "domains"
            (Dsim.Json.Number
               (float_of_int (Exec.Pool.resolve_jobs ~requested:0)))
      | _ -> json
    in
    let checked =
      let ( let* ) = Result.bind in
      let* spec = Mmb.Scenario.of_json json in
      if spec.protocol = `Fmmb_online then
        Error "run: protocol \"fmmb-online\" has no run report; use exec"
      else if progress <> None && spec.partitions > 1 then
        Error
          "--progress requires the serial engine (--partitions 1): its \
           ticker is an event in one engine's heap"
      else if progress <> None && spec.protocol = `Fmmb then
        Error
          "--progress requires protocol \"bmmb\": FMMB's round engine has \
           no event heap to hold the ticker"
      else Ok spec
    in
    match checked with
    | Error e -> `Error (false, e)
    | Ok spec ->
        let resolved = Mmb.Scenario.spec_to_json spec in
        let sim_ref = ref None and obs = ref None and files = ref [] in
        (* --trace prints the run's entries, kept by a trace attached
           like any other consumer. *)
        let kept = if trace then Some (Dsim.Trace.create ()) else None in
        (* Fail fast: the streaming checker stops the serial simulation
           at the first axiom violation, printing the offending event (a
           partitioned run, which has no one engine to stop, prints it
           and runs on). *)
        let on_violation entry v =
          Fmt.epr "[monitor] %a@." Amac.Compliance.pp_violation v;
          Option.iter
            (Fmt.epr "[monitor] offending event: %a@." Dsim.Trace.pp_entry)
            entry;
          Option.iter Dsim.Sim.stop !sim_ref
        in
        let instrument dual dyn =
          Option.iter
            (fun path ->
              match Graphs.Svg.render dual with
              | Some doc ->
                  Graphs.Svg.write ~path doc;
                  Printf.printf "network rendered to %s\n" path
              | None ->
                  prerr_endline
                    "note: --svg requires an embedded (geometric/greyzone) \
                     network; skipped")
            svg;
          let n = Graphs.Dual.n dual in
          (* Export metadata: the resolved spec's members [keys] names,
             with the built network's n. *)
          let resolved =
            Mmb.Scenario.put resolved "n" (Dsim.Json.Number (float_of_int n))
          in
          let meta =
            List.map (fun key ->
                (key, Option.get (Dsim.Json.member_opt resolved key)))
          in
          (obs :=
             match spec.protocol with
             | `Fmmb when metrics <> None ->
                 (* Span-only: the streaming checker knows only the
                    standard model. *)
                 Some
                   (Obs.Observer.create ~n
                      ~meta:(meta [ "protocol"; "n"; "k"; "fprog"; "seed" ])
                      ())
             | `Bmmb when metrics <> None || progress <> None ->
                 Some
                   (Obs.Observer.create ~n ~dual ~fack:spec.fack
                      ~fprog:spec.fprog ~on_violation ?dyn
                      ~meta:
                        (meta
                           [ "protocol"; "scheduler"; "n"; "k"; "fack";
                             "fprog"; "seed" ])
                      ())
             | _ -> None);
          let meta = meta [ "protocol"; "n"; "k"; "seed" ] in
          files :=
            List.filter_map Fun.id
              [
                Option.map (trace_surface ~meta) trace_out;
                Option.map (provenance_surface ~meta ~n) provenance;
              ];
          let keep kept _ tr =
            Dsim.Trace.subscribe tr (fun { Dsim.Trace.time; event } ->
                Dsim.Trace.record kept ~time event)
          in
          let attach =
            match
              List.map (fun f -> f.subscribe) !files
              @ Option.to_list (Option.map keep kept)
            with
            | [] -> None
            | subs ->
                Some (fun ledger tr -> List.iter (fun f -> f ledger tr) subs)
          in
          Obs.Run.instrument ?obs:!obs ?attach ()
        in
        let setup sim =
          sim_ref := Some sim;
          (* Wall time is injected from outside the library (lint rule
             D3); it only feeds volatile gauges, never the default
             export. *)
          Dsim.Sim.set_wall_clock sim wall_clock;
          match (!obs, progress) with
          | Some o, Some interval ->
              let interval = if interval <= 0. then 10. else interval in
              let rec tick () =
                print_endline (Obs.Observer.progress_line o ~sim);
                (* Only reschedule while other work is pending, so the
                   ticker never keeps a drained simulation alive. *)
                if Dsim.Sim.pending sim > 0 then
                  ignore
                    (Dsim.Sim.schedule ~cat:"obs.progress" sim ~delay:interval
                       tick)
              in
              ignore
                (Dsim.Sim.schedule_at ~cat:"obs.progress" sim ~time:0. tick)
          | _ -> ()
        in
        let x =
          Mmb.Scenario.run ~instrument ~setup spec ~seed:spec.seed
        in
        (match (!obs, metrics) with
        | Some o, Some path ->
            Obs.Observer.to_file o path;
            Printf.printf "metrics written to %s\n" path
        | _ -> ());
        describe_dual x.dual;
        (* The audit verdict, on either BMMB engine. *)
        let audited ~violations =
          if spec.check then
            if violations = [] then
              print_endline "compliance: OK (all five axioms hold)"
            else begin
              print_endline "compliance: VIOLATIONS";
              List.iter
                (fun v -> Fmt.pr "  %a@." Amac.Compliance.pp_violation v)
                violations
            end
        in
        (match x.engine with
        | Mmb.Scenario.Serial res ->
            let open Mmb.Runner in
            Printf.printf "protocol: BMMB, scheduler: %s, Fack=%g, Fprog=%g\n"
              (Result.get_ok
                 (Dsim.Json.member_str resolved "scheduler" ~default:""))
              spec.fack spec.fprog;
            print_bound ~complete:res.complete ~time:res.time
              ~bound:res.upper_bound;
            Printf.printf
              "bcasts: %d, rcvs: %d, forced progress deliveries: %d\n"
              res.bcasts res.rcvs res.forced;
            Printf.printf "engine: %d events executed\n" res.events_executed;
            Option.iter
              (fun d ->
                let churned =
                  match Option.bind !obs Obs.Observer.monitor with
                  | Some m -> Amac.Compliance.churned_count m
                  | None -> 0
                in
                Printf.printf
                  "dynamic: kind=%s T=%g epochs=%d refreshes=%d \
                   churned-deliveries=%d\n"
                  (Dyn.Schedule.kind_name (Dyn.Dual.schedule d))
                  (Dyn.Schedule.epoch_len (Dyn.Dual.schedule d))
                  (Dyn.Dual.epoch d + 1)
                  (Dyn.Dual.refreshes d) churned)
              x.dyn;
            audited ~violations:res.compliance_violations
        | Mmb.Scenario.Partitioned r ->
            let open Mmb.Runner in
            Printf.printf
              "protocol: BMMB (partitioned engine), Fack=%g, Fprog=%g, \
               partitions=%d, domains=%d\n"
              spec.fack spec.fprog r.pd_partitions r.pd_domains;
            print_bound ~complete:r.pd_complete ~time:r.pd_time
              ~bound:r.pd_upper_bound;
            Printf.printf "bcasts: %d, rcvs: %d, acks: %d\n" r.pd_bcasts
              r.pd_rcvs r.pd_acks;
            Printf.printf
              "deliveries: %d (%d across partitions, %d cut edges)\n"
              r.pd_deliveries r.pd_remote r.pd_cut_edges;
            Printf.printf
              "engine: %d events executed, %d barrier windows, heap high \
               water %d\n"
              r.pd_events r.pd_windows r.pd_heap_high_water;
            audited ~violations:r.pd_compliance_violations
        | Mmb.Scenario.Fmmb { fmmb = f; _ } ->
            let open Mmb.Fmmb in
            Printf.printf "protocol: FMMB (enhanced model), Fprog=%g\n"
              spec.fprog;
            Printf.printf
              "complete: %b\nrounds: %d (mis %d + gather %d + spread %d)\n\
               time: %g\n"
              f.complete f.total_rounds f.rounds_mis f.rounds_gather
              f.rounds_spread f.time;
            Printf.printf "MIS: size %d, valid %b\n" f.mis_size f.mis_valid);
        Option.iter (fun tr -> Fmt.pr "%a@." Dsim.Trace.pp tr) kept;
        List.iter (fun f -> f.write ()) !files;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const action
        $ scenario
            (("protocol" :: cell)
            @ [ "check"; "domains"; "partitions"; "dynamic.kind";
                "dynamic.epoch"; "dynamic.period"; "dynamic.churn";
                "dynamic.seed" ])
        $ trace_arg $ trace_out_arg $ provenance_arg $ metrics_arg
        $ progress_arg $ svg_arg))
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
  let action network d json =
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
    match Mmb.Scenario.of_json json with
    | Error e -> `Error (false, e)
    | Ok { k; fack; fprog; _ } -> (
        match network with
        | "two-line" when d < 2 -> `Error (false, "need d >= 2")
        | "two-line" -> print (Mmb.Lower_bound.run_two_line ~d ~fack ~fprog ())
        | "choke" -> print (Mmb.Lower_bound.run_choke ~k ~fack ~fprog ())
        | other -> `Error (false, Printf.sprintf "unknown network %S" other))
  in
  let term =
    Term.(
      ret
        (const action $ network $ d_arg $ scenario [ "k"; "fack"; "fprog" ]))
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
    let doc =
      "Swept parameter: any numeric scenario field (n, k, r, extra, fack, \
       fprog, seed, ...; dotted for the dynamic object, e.g. \
       dynamic.epoch), as in a scenario file's \"sweep\" directive."
    in
    Arg.(value & opt string "k" & info [ "param" ] ~docv:"PARAM" ~doc)
  in
  let values =
    let doc = "Comma-separated values for the swept parameter." in
    Arg.(
      value
      & opt string "1,2,4,8,16"
      & info [ "values" ] ~docv:"V1,V2,..." ~doc)
  in
  (* The flags' cell plus a "sweep" directive is a scenario document, so
     Mmb.Scenario.expand checks every point, before the table header
     prints, and builds the specs exec would. *)
  let action param values json =
    let ( let* ) = Result.bind in
    let rec numbers = function
      | [] -> Ok []
      | s :: rest -> (
          let s = String.trim s in
          match Result.bind (Dsim.Json.parse s) Dsim.Json.to_float with
          | Error _ ->
              Error (Printf.sprintf "sweep: values must be numbers, got %S" s)
          | Ok x ->
              let* xs = numbers rest in
              Ok (x :: xs))
    in
    let checked =
      let* xs = numbers (String.split_on_char ',' values) in
      let sweep =
        Dsim.Json.Obj
          [
            ("param", Dsim.Json.String param);
            ( "values",
              Dsim.Json.List (List.map (fun x -> Dsim.Json.Number x) xs) );
          ]
      in
      let* specs = Mmb.Scenario.expand (Mmb.Scenario.put json "sweep" sweep) in
      Ok (List.combine xs specs)
    in
    match checked with
    | Error e -> `Error (false, e)
    | Ok points ->
        Printf.printf "%8s  %10s  %10s  %10s\n" param "time" "bound" "ratio";
        List.iter
          (fun (x, spec) ->
            List.iter
              (fun (r : Mmb.Scenario.run_result) ->
                let bound = Option.value r.bound ~default:0. in
                Printf.printf "%8g  %10.1f  %10.1f  %10.2f\n" x r.time bound
                  (if bound > 0. then r.time /. bound else 0.))
              (Mmb.Scenario.execute spec))
          points;
        `Ok ()
  in
  let term = Term.(ret (const action $ param $ values $ scenario cell)) in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep one parameter of a BMMB simulation.")
    term

(* --- online --------------------------------------------------------------- *)

let online_cmd =
  let action json =
    let poisson = Dsim.Json.String "poisson" in
    match Mmb.Scenario.of_json (Mmb.Scenario.put json "arrivals" poisson) with
    | Error e -> `Error (false, e)
    | Ok spec -> (
        let x = Mmb.Scenario.run spec ~seed:spec.seed in
        match x.engine with
        | Mmb.Scenario.Serial res ->
            describe_dual x.dual;
            Printf.printf
              "online BMMB: rate=%g, k=%d\ncomplete: %b\nmakespan: %g\n"
              spec.rate spec.k res.Mmb.Runner.complete res.Mmb.Runner.time;
            (match List.map snd res.Mmb.Runner.latencies with
            | [] -> print_endline "no completed messages"
            | latencies ->
                Fmt.pr "latency: %a@." Dsim.Stats.pp_summary
                  (Dsim.Stats.summarize latencies));
            `Ok ()
        | _ -> (* online's cells are serial BMMB *) assert false)
  in
  let term = Term.(ret (const action $ scenario (cell @ [ "rate" ]))) in
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
  let action m json =
    match Mmb.Scenario.of_json json with
    | Error e -> `Error (false, e)
    | Ok _ when m < 1 -> `Error (false, "need contenders >= 1")
    | Ok { seed; _ } ->
        let r = Radio.Decay.star_contention ~m ~seed ~max_slots:10_000_000 in
        Printf.printf
          "decay MAC on a star with %d contenders (implemented Fack = %g \
           slots)\n"
          m r.implemented_fack;
        (match r.first_reception with
        | Some s ->
            Printf.printf "hub heard SOMETHING after %d slots (Fprog-like)\n" s
        | None -> print_endline "hub heard nothing");
        Printf.printf "hub heard the SLOWEST specific message after %d slots\n"
          r.slowest;
        Printf.printf "transmissions: %d, collisions: %d\n" r.transmissions
          r.collisions;
        `Ok ()
  in
  let term =
    Term.(ret (const action $ contenders_arg $ scenario [ "seed" ]))
  in
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
  let action file json =
    let ( let* ) = Result.bind in
    let estimated =
      let* spec = Mmb.Scenario.of_json json in
      let dual = Mmb.Scenario.build_dual spec ~seed:spec.seed in
      let* entries =
        Result.map_error
          (fun e -> "trace: " ^ e)
          (let* entries = Dsim.Trace_io.read_file ~path:file in
           let* () = Dsim.Trace_io.check ~n:(Graphs.Dual.n dual) entries in
           Ok entries)
      in
      let tr = Dsim.Trace.create () in
      List.iter
        (fun { Dsim.Trace.time; event } -> Dsim.Trace.record tr ~time event)
        entries;
      Ok (Amac.Estimate.estimate ~dual tr)
    in
    match estimated with
    | Error e -> `Error (false, e)
    | Ok est ->
        Fmt.pr "estimated MAC parameters (lower bounds from the trace):@.  %a@."
          Amac.Estimate.pp est;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ trace_file
        $ scenario [ "topology"; "gprime"; "n"; "r"; "extra"; "seed" ]))
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
    | Ok specs ->
        let outcomes =
          List.map
            (fun spec ->
              let runs = Mmb.Scenario.execute spec in
              print_string (Mmb.Scenario.report spec runs);
              print_newline ();
              Mmb.Scenario.result_json spec runs)
            specs
        in
        (match json_out with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc
                  (Dsim.Json.to_string (Dsim.Json.List outcomes)));
            Printf.printf "results written to %s\n" path);
        `Ok ()
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
    let doc = "Run every scenario, reading and writing no cache." in
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
            (* Every run folds its engine counters into Obs.Global, which
               the campaign reads per job for its timeline. *)
            let runs =
              Mmb.Scenario.execute
                ~instrument:(fun _ _ -> Obs.Run.instrument ())
                spec
            in
            Exec.Sink.emit (Mmb.Scenario.report spec runs);
            Exec.Sink.emit "\n";
            Mmb.Scenario.result_json spec runs)
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
      let jobs = Exec.Pool.resolve_jobs ~requested:jobs in
      let outcomes, stats =
        Exec.Campaign.run ~jobs ~salt ?cache ~clock:wall_clock job_list
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
          deterministic merge, and a content-addressed cache that is also \
          the checkpoint a killed campaign resumes from.")
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
