module Compliance = Amac.Compliance

type t = {
  metrics : Metrics.t;
  spans : Spans.t;
  monitor : Compliance.t option;
  churned : Metrics.counter option; (* settled by [finish] *)
  meta : (string * Dsim.Json.t) list;
  mutable finished : bool;
}

let create ~n:_ ?dual ?fack ?fprog ?dyn ?(on_violation = fun _ _ -> ())
    ?(meta = []) () =
  let metrics = Metrics.create () in
  let spans = Spans.create ~metrics () in
  let monitor =
    match (dual, fack, fprog) with
    | Some dual, Some fack, Some fprog ->
        let on_gap =
          Metrics.observe (Metrics.histogram metrics "mac.progress_gap")
        in
        let violations = Metrics.counter metrics "monitor.violations" in
        let on_violation entry v =
          Metrics.incr violations;
          on_violation entry v
        in
        Some
          (Compliance.create ~dual ~fack ~fprog ?dyn ~on_violation ~on_gap ())
    | None, _, _ -> None
    | _ ->
        invalid_arg
          "Observer.create: streaming compliance needs dual, fack and fprog"
  in
  let churned =
    match (monitor, dyn) with
    | Some _, Some _ -> Some (Metrics.counter metrics "monitor.churned")
    | _ -> None
  in
  { metrics; spans; monitor; churned; meta; finished = false }

let metrics t = t.metrics
let spans t = t.spans
let monitor t = t.monitor

let attach t ledger trace =
  Dsim.Trace.subscribe trace (fun entry ->
      Spans.on_entry t.spans ledger entry;
      match t.monitor with
      | Some m -> Compliance.on_entry m entry
      | None -> ())

let wire_sim t sim =
  let m = t.metrics in
  let fi f = float_of_int f in
  Metrics.probe m "engine.executed" (fun () ->
      fi (Dsim.Sim.executed_events sim));
  Metrics.probe m "engine.pending" (fun () -> fi (Dsim.Sim.pending sim));
  Metrics.probe m "engine.heap_high_water" (fun () ->
      fi (Dsim.Sim.heap_high_water sim));
  Metrics.probe m "engine.heap_pushes" (fun () -> fi (Dsim.Sim.heap_pushes sim));
  Metrics.probe m "engine.cancelled" (fun () ->
      fi (Dsim.Sim.cancelled_events sim));
  Metrics.probe m "engine.cat_interned" (fun () ->
      fi (Dsim.Sim.cat_interned sim));
  Metrics.multi_probe m (fun () ->
      List.map
        (fun (name, events, _) -> ("engine.cat." ^ name ^ ".events", fi events))
        (Dsim.Sim.category_stats sim));
  (* Wall time is real-clock-derived, hence volatile: excluded from the
     deterministic default export. *)
  Metrics.multi_probe m ~volatile:true (fun () ->
      List.map
        (fun (name, _, wall) -> ("engine.cat." ^ name ^ ".wall_s", wall))
        (Dsim.Sim.category_stats sim))

(* The checker's own [finish] is idempotent too, and may have run first
   (a checked run finishes it before the instrument). *)
let finish ?allow_open t =
  match t.monitor with
  | None -> []
  | Some m ->
      let vs = Compliance.finish ?allow_open m in
      if not t.finished then
        Option.iter
          (fun c -> Metrics.incr ~by:(Compliance.churned_count m) c)
          t.churned;
      t.finished <- true;
      vs

let verdict_line t =
  let checked = t.monitor <> None in
  let vs =
    match t.monitor with Some m -> Compliance.violations m | None -> []
  in
  Dsim.Json.Obj
    [
      ("kind", Dsim.Json.String "compliance");
      ("checked", Dsim.Json.Bool checked);
      ("ok", (if checked then Dsim.Json.Bool (vs = []) else Dsim.Json.Null));
      ("violations", Dsim.Json.Number (float_of_int (List.length vs)));
      ( "details",
        Dsim.Json.List
          (List.map
             (fun v ->
               Dsim.Json.String
                 (Fmt.str "%a" Compliance.pp_violation v))
             vs) );
    ]

let jsonl ?include_volatile t =
  let meta =
    Dsim.Json.Obj
      (("kind", Dsim.Json.String "meta")
      :: ("schema", Dsim.Json.String "mmb-metrics/1")
      :: t.meta)
  in
  let lines =
    (meta :: Metrics.snapshot ?include_volatile t.metrics)
    @ Spans.span_lines t.spans
    @ [ verdict_line t ]
  in
  List.map Dsim.Json.to_string lines

let to_file ?include_volatile t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (jsonl ?include_volatile t))

let progress_line t ~sim =
  let violations =
    match t.monitor with Some m -> Compliance.violation_count m | None -> 0
  in
  Fmt.str
    "[obs] t=%.3f msgs %d/%d frontier %d events %d pending %d heap_hw %d%s"
    (Dsim.Sim.now sim)
    (Spans.messages_complete t.spans)
    (Spans.messages_seen t.spans)
    (Spans.total_delivers t.spans)
    (Dsim.Sim.executed_events sim)
    (Dsim.Sim.pending sim)
    (Dsim.Sim.heap_high_water sim)
    (if violations = 0 then "" else Fmt.str " VIOLATIONS %d" violations)
