(* Result documents.  One workload's result is a [workload] record; a
   full invocation writes a [doc] ("mmb-bench-wall/1") holding one per
   workload plus the host it ran on.  [result_line] is the one-line
   summary printed last by every single-workload run. *)

module J = Dsim.Json

let schema = "mmb-bench-wall/1"

type metric = { name : string; unit : string; summary : Stats.summary }

type workload = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  events : int;
  counters : (string * float) list;  (** deterministic, simulated *)
  metrics : metric list;  (** end to end, untraced *)
  layers : (string * string * float) list;  (** per layer; traced runs only *)
  unresolved : string list;  (** layer metrics below their noise; they read 0 *)
}

type doc = {
  seed : int;
  seconds : float;
  host_cores : int;
  ocaml_version : string;
  workloads : workload list;
}

let of_measure ?(layers = []) ?(unresolved = []) (m : Measure.t) =
  {
    workload = m.Measure.workload;
    correct = m.Measure.failures = [];
    attempted = m.Measure.attempted;
    failed = List.length m.Measure.failures;
    events = m.Measure.events;
    counters = m.Measure.counters;
    metrics =
      List.map
        (fun (name, unit, summary) -> { name; unit; summary })
        (Measure.end_to_end m);
    layers;
    unresolved;
  }

(* --- JSON ------------------------------------------------------------------ *)

let num x = J.Number x
let int x = J.Number (float_of_int x)

let workload_to_json w =
  J.Obj
    [
      ("workload", J.String w.workload);
      ("correct", J.Bool w.correct);
      ("attempted", int w.attempted);
      ("failed", int w.failed);
      ("events", int w.events);
      ("counters", J.Obj (List.map (fun (k, v) -> (k, num v)) w.counters));
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               let s = m.summary in
               ( m.name,
                 J.Obj
                   [
                     ("unit", J.String m.unit);
                     ("median", num s.Stats.median);
                     ("q1", num s.Stats.q1);
                     ("q3", num s.Stats.q3);
                     ("n", int s.Stats.n);
                   ] ))
             w.metrics) );
      ( "layers",
        J.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, J.Obj [ ("unit", J.String unit); ("value", num v) ]))
             w.layers) );
      ("unresolved", J.List (List.map (fun s -> J.String s) w.unresolved));
    ]

(* The per-layer table (Layers.metrics); written into every document so
   a baseline says which end-to-end metric each layer metric explains.
   Readers of a document take it from Layers, not from the file. *)
let layer_to_json (l : Layers.metric) =
  let names xs = J.List (List.map (fun s -> J.String s) xs) in
  J.Obj
    [
      ("name", J.String l.Layers.name);
      ("unit", J.String l.Layers.unit);
      ("should_move", names l.Layers.should_move);
      ("on", names l.Layers.on);
      ("control", names l.Layers.control);
    ]

let doc_to_json d =
  J.Obj
    [
      ("schema", J.String schema);
      ("seed", int d.seed);
      ("seconds", num d.seconds);
      ("host_cores", int d.host_cores);
      ("ocaml_version", J.String d.ocaml_version);
      ("workloads", J.List (List.map workload_to_json d.workloads));
      ("per_layer", J.List (List.map layer_to_json Layers.metrics));
    ]

let ( let* ) = Result.bind

let map_result f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let fields = function
  | J.Obj members -> Ok members
  | _ -> Error "expected an object"

let field j name conv =
  let* v = J.member j name in
  Result.map_error (fun e -> name ^ ": " ^ e) (conv v)

let workload_of_json j =
  let* workload = field j "workload" J.to_str in
  let* correct = field j "correct" J.to_bool in
  let* attempted = field j "attempted" J.to_int in
  let* failed = field j "failed" J.to_int in
  let* events = field j "events" J.to_int in
  let* counters = field j "counters" fields in
  let* counters =
    map_result
      (fun (k, v) -> Result.map (fun f -> (k, f)) (J.to_float v))
      counters
  in
  let* metrics = field j "metrics" fields in
  let* metrics =
    map_result
      (fun (name, m) ->
        let* unit = field m "unit" J.to_str in
        let* median = field m "median" J.to_float in
        let* q1 = field m "q1" J.to_float in
        let* q3 = field m "q3" J.to_float in
        let* n = field m "n" J.to_int in
        Ok { name; unit; summary = { Stats.median; q1; q3; n } })
      metrics
  in
  let* layers = field j "layers" fields in
  let* layers =
    map_result
      (fun (name, l) ->
        let* unit = field l "unit" J.to_str in
        let* value = field l "value" J.to_float in
        Ok (name, unit, value))
      layers
  in
  let* unresolved = field j "unresolved" J.to_list in
  let* unresolved = map_result J.to_str unresolved in
  Ok
    {
      workload;
      correct;
      attempted;
      failed;
      events;
      counters;
      metrics;
      layers;
      unresolved;
    }

let doc_of_json j =
  let* s = field j "schema" J.to_str in
  if not (String.equal s schema) then
    Error (Printf.sprintf "schema %S, expected %S" s schema)
  else
    let* seed = field j "seed" J.to_int in
    let* seconds = field j "seconds" J.to_float in
    let* host_cores = field j "host_cores" J.to_int in
    let* ocaml_version = field j "ocaml_version" J.to_str in
    let* workloads = field j "workloads" J.to_list in
    let* workloads = map_result workload_of_json workloads in
    Ok { seed; seconds; host_cores; ocaml_version; workloads }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let load_doc path =
  match J.parse (read_file path) with
  | exception Sys_error e -> Error e
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j -> Result.map_error (fun e -> path ^ ": " ^ e) (doc_of_json j)

(* The last line of a single-workload run: end-to-end medians untraced,
   per-layer values traced. *)
let result_line ~traced w =
  let metric name unit v =
    (name, J.Obj [ ("value", num v); ("unit", J.String unit) ])
  in
  let metrics =
    if traced then List.map (fun (name, unit, v) -> metric name unit v) w.layers
    else
      List.map (fun m -> metric m.name m.unit m.summary.Stats.median) w.metrics
  in
  J.Obj
    [
      ("correct", J.Bool w.correct);
      ("attempted", int w.attempted);
      ("failed", int w.failed);
      ("metrics", J.Obj metrics);
    ]

(* --- Text ------------------------------------------------------------------ *)

let print_table w =
  Printf.printf "%s: %s, %d attempted, %d failed, %d events per sample\n"
    w.workload
    (if w.correct then "correct" else "INCORRECT")
    w.attempted w.failed w.events;
  Printf.printf "  %-24s %-6s %14s %14s %3s\n" "metric" "unit" "median" "IQR"
    "n";
  List.iter
    (fun m ->
      Printf.printf "  %-24s %-6s %14.6g %14.6g %3d\n" m.name m.unit
        m.summary.Stats.median (Stats.iqr m.summary) m.summary.Stats.n)
    w.metrics;
  List.iter
    (fun (name, unit, v) ->
      if List.mem name w.unresolved then
        Printf.printf "  %-30s %-6s %14s\n" name unit "unresolved"
      else Printf.printf "  %-30s %-6s %14.6g\n" name unit v)
    w.layers

(* --- Trace ----------------------------------------------------------------- *)

(* The run's spans as a Chrome trace (1 unit = 1 ms of wall time since
   the first span), one track per sample id, validated after writing. *)
let write_trace ~path (m : Measure.t) =
  let spans = List.rev m.Measure.spans in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.Measure.t0) infinity spans
  in
  let w = Obs.Tracing.create () in
  Obs.Tracing.process_name w ~pid:1 m.Measure.workload;
  List.iter
    (fun s ->
      Obs.Tracing.complete w ~cat:"bench"
        ~args:[ ("sample", int s.Measure.sample) ]
        ~pid:1 ~tid:s.Measure.sample
        ~ts:((s.Measure.t0 -. origin) *. 1e3)
        ~dur:((s.Measure.t1 -. s.Measure.t0) *. 1e3)
        s.Measure.name)
    spans;
  Obs.Tracing.write_file w ~path;
  Obs.Tracing.validate_file ~path
