(* Tests of the wall-clock benchmark's own machinery: the summary
   statistics, every compare verdict, the observer-cost noise rule, the
   result-document round trip, the allocation instrument across domains,
   the command line on every workload at smoke size, and agreement of
   BENCHMARK.json, the per-layer table and the baseline. *)

open Wallclock

let close ?(eps = 1e-12) a b = Float.abs (a -. b) <= eps
let check_float msg want got = Alcotest.(check bool) msg true (close want got)

(* --- Stats: reference values from Python's statistics module ------------- *)

let test_stats () =
  let q xs = Stats.quartiles xs in
  let expect name xs ~median ~q1 ~q3 =
    let a, b = q xs in
    check_float (name ^ " median") median (Stats.median xs);
    check_float (name ^ " q1") q1 a;
    check_float (name ^ " q3") q3 b
  in
  expect "odd" [ 1.; 2.; 3.; 4.; 5. ] ~median:3. ~q1:1.5 ~q3:4.5;
  expect "unsorted" [ 5.; 1.; 4.; 2.; 3. ] ~median:3. ~q1:1.5 ~q3:4.5;
  expect "even" [ 1.; 2.; 3.; 4. ] ~median:2.5 ~q1:1.25 ~q3:3.75;
  expect "two" [ 1.; 3. ] ~median:2. ~q1:0.5 ~q3:3.5;
  expect "six" [ 0.3; 0.1; 0.7; 0.2; 0.9; 0.4 ] ~median:0.35 ~q1:0.175
    ~q3:0.75;
  expect "one" [ 7. ] ~median:7. ~q1:7. ~q3:7.;
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "iqr" 3. (Stats.iqr s);
  check_float "spread" 1. (Stats.spread s);
  Alcotest.(check int) "n" 5 s.Stats.n

(* --- Verdicts -------------------------------------------------------------- *)

let s ?q1 ?q3 median =
  let q1 = Option.value q1 ~default:median
  and q3 = Option.value q3 ~default:median in
  { Stats.median; q1; q3; n = 5 }

let verdict = Alcotest.testable (Fmt.of_to_string Verdict.to_string) ( = )

let test_verdicts () =
  let run_s = { Verdict.metric = "run_s"; lower_is_better = true; bound = 0.1 } in
  let rate =
    { Verdict.metric = "events_per_s"; lower_is_better = false; bound = 0.1 }
  in
  let setup = { Verdict.metric = "setup_s"; lower_is_better = true; bound = 0.1 } in
  let j b a c = Verdict.judge b a c in
  Alcotest.check verdict "within bound" Verdict.Pass (j run_s (s 1.) (s 1.05));
  Alcotest.check verdict "slower" Verdict.Regression (j run_s (s 1.) (s 1.2));
  Alcotest.check verdict "faster" Verdict.Improved (j run_s (s 1.) (s 0.8));
  Alcotest.check verdict "lower rate" Verdict.Regression (j rate (s 100.) (s 80.));
  Alcotest.check verdict "higher rate" Verdict.Improved (j rate (s 100.) (s 120.));
  Alcotest.check verdict "wide and overlapping" Verdict.Unresolved
    (j run_s (s ~q1:0.8 ~q3:1.2 1.) (s ~q1:1. ~q3:1.3 1.15));
  Alcotest.check verdict "candidate wide, overlapping" Verdict.Unresolved
    (j run_s (s 1.) (s ~q1:0.9 ~q3:1.5 1.3));
  Alcotest.check verdict "wide but apart" Verdict.Regression
    (j run_s (s ~q1:0.8 ~q3:1.2 1.) (s ~q1:1.9 ~q3:2.1 2.));
  Alcotest.check verdict "millisecond setup, within its bound" Verdict.Pass
    (j setup (s 0.002) (s 0.0021));
  Alcotest.check verdict "millisecond setup, past its bound" Verdict.Regression
    (j setup (s 0.002) (s 0.0024));
  Alcotest.check verdict "long setup, relative bound" Verdict.Regression
    (j setup (s 1.) (s 1.2))

(* --- Observer costs ---------------------------------------------------------- *)

let test_difference () =
  let summary xs = Stats.summarize xs in
  let d a b = Layers.difference (summary a) (summary b) in
  Alcotest.(check (option (float 1e-12)))
    "clear difference" (Some 1.)
    (d [ 1.0; 1.1; 0.9 ] [ 2.0; 2.1; 1.9 ]);
  Alcotest.(check (option (float 1e-12)))
    "within the IQR" None
    (d [ 1.0; 1.3; 0.7 ] [ 1.1; 1.2; 1.0 ]);
  Alcotest.(check (option (float 1e-12)))
    "negative and within the IQR" None
    (d [ 1.0; 1.1; 0.9 ] [ 0.95; 1.2; 0.7 ])

let workload ?(failed = 0) ?(counters = [ ("mmb.bcasts", 4.) ]) name run_s =
  {
    Report.workload = name;
    correct = failed = 0;
    attempted = 6;
    failed;
    events = 100;
    counters;
    metrics = [ { Report.name = "run_s"; unit = "s"; summary = s run_s } ];
    layers = [ ("dsim.events", "count", 100.) ];
    unresolved = [];
  }

let doc workloads =
  {
    Report.seed = 1;
    seconds = 10.;
    host_cores = 2;
    ocaml_version = "5.1.1";
    workloads;
  }

let test_rows () =
  let bounds =
    [ { Verdict.metric = "run_s"; lower_is_better = true; bound = 0.1 } ]
  in
  let rows =
    Verdict.rows ~bounds
      (doc [ workload "a" 1.; workload "b" 1. ])
      (doc
         [
           workload ~failed:1 "a" 1.;
           workload ~counters:[ ("mmb.bcasts", 5.) ] "b" 2.;
         ])
  in
  let find w m =
    (List.find
       (fun r ->
         String.equal r.Verdict.workload w && String.equal r.Verdict.metric m)
       rows)
      .Verdict.verdict
  in
  Alcotest.check verdict "a run_s" Verdict.Pass (find "a" "run_s");
  Alcotest.check verdict "a failed more" Verdict.Regression
    (find "a" "failed_frac");
  Alcotest.check verdict "a counters" Verdict.Pass (find "a" "counters");
  Alcotest.check verdict "b run_s" Verdict.Regression (find "b" "run_s");
  Alcotest.check verdict "b counters" Verdict.Changed (find "b" "counters");
  let missing =
    Verdict.rows ~bounds (doc [ workload "a" 1. ]) (doc [ workload "z" 1. ])
  in
  Alcotest.check verdict "absent workload" Verdict.Missing
    (List.hd missing).Verdict.verdict

(* --- Result documents ------------------------------------------------------ *)

let test_round_trip () =
  let d =
    doc
      [
        workload "a" 0.123456789012345678;
        {
          (workload ~failed:2 ~counters:[ ("mmb.bound_ratio", 1. /. 3.) ] "b" 2.5)
          with
          Report.unresolved = [ "obs.spans_us_per_event" ];
        };
      ]
  in
  let text = Dsim.Json.to_string (Report.doc_to_json d) in
  match Result.bind (Dsim.Json.parse text) Report.doc_of_json with
  | Error e -> Alcotest.fail e
  | Ok d' -> Alcotest.(check bool) "identical after a round trip" true (d = d')

(* --- Allocation across domains --------------------------------------------- *)

(* The two-domain run's workers allocate on their own domains; the
   instrument must see that allocation once they are joined. *)
let test_words_across_domains () =
  let input = Workloads.build ~smoke:true ~seed:1 "mega_grid" in
  let words domains =
    let w0 = Clock.minor_words () in
    let o = Workloads.run ~domains input in
    (o, Clock.minor_words () -. w0)
  in
  let o1, w1 = words 1 in
  let o2, w2 = words 2 in
  Alcotest.(check bool) "same counters at d1 and d2" true
    (o1.Workloads.events = o2.Workloads.events
    && o1.Workloads.counters = o2.Workloads.counters);
  Alcotest.(check bool)
    (Printf.sprintf "d2 words %.0f >= 0.9 x d1 words %.0f" w2 w1)
    true
    (w2 >= 0.9 *. w1)

(* --- The command line at smoke size ----------------------------------------- *)

(* Runs main.exe from the project root of the build tree, where
   BENCHMARK.json is, and returns its exit code. *)
let main args =
  let exe = Filename.concat (Sys.getcwd ()) "main.exe" in
  Sys.command
    (Printf.sprintf "cd ../.. && %s %s > /dev/null" (Filename.quote exe)
       (String.concat " " (List.map Filename.quote args)))

let smoke_doc = Filename.concat (Sys.getcwd ()) "smoke.json"

(* Every workload at smoke size, each in its own child process, with the
   traced pass: all correct, every layer metric present, every trace
   valid (a trace that does not validate fails its workload). *)
let smoke =
  lazy
    (let code =
       main [ "--smoke"; "--seconds"; "0"; "--trace"; "1"; "--out"; smoke_doc ]
     in
     Alcotest.(check int) "main.exe --smoke exit code" 0 code;
     match Report.load_doc smoke_doc with
     | Ok d -> d
     | Error e -> Alcotest.fail e)

let test_smoke () =
  let d = Lazy.force smoke in
  Alcotest.(check (list string))
    "workloads" Workloads.names
    (List.map (fun w -> w.Report.workload) d.Report.workloads);
  List.iter
    (fun (w : Report.workload) ->
      let name = w.Report.workload in
      Alcotest.(check bool) (name ^ " correct") true w.Report.correct;
      Alcotest.(check bool) (name ^ " events") true (w.Report.events > 0);
      Alcotest.(check int)
        (name ^ " samples")
        (1 + Measure.min_samples) w.Report.attempted;
      Alcotest.(check (list string))
        (name ^ " every layer metric")
        (List.map (fun l -> l.Layers.name) Layers.metrics)
        (List.map (fun (n, _, _) -> n) w.Report.layers))
    d.Report.workloads;
  Alcotest.(check int)
    "a document compared with itself" 0
    (main [ "--compare"; smoke_doc; smoke_doc ])

(* --- BENCHMARK.json, the per-layer table and the baseline ----------------- *)

let benchmark_json =
  lazy
    (match Dsim.Json.parse (Report.read_file "../../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> Alcotest.fail e)

let rows key =
  match Result.bind (Dsim.Json.member (Lazy.force benchmark_json) key) Dsim.Json.to_list with
  | Ok rows -> rows
  | Error e -> Alcotest.fail e

let str r key =
  match Dsim.Json.member r key with
  | Ok (Dsim.Json.String s) -> s
  | _ -> Alcotest.fail (key ^ " missing or not a string")

let test_benchmark_json () =
  let pair = Alcotest.(list (pair string string)) in
  let names_units key = List.map (fun r -> (str r "name", str r "unit")) (rows key) in
  let end_to_end = List.map fst (names_units "end_to_end") in
  let w = List.hd (Lazy.force smoke).Report.workloads in
  Alcotest.check pair "end_to_end" (names_units "end_to_end")
    (List.map (fun m -> (m.Report.name, m.Report.unit)) w.Report.metrics);
  Alcotest.check pair "per_layer" (names_units "per_layer")
    (List.map (fun l -> (l.Layers.name, l.Layers.unit)) Layers.metrics);
  Alcotest.(check (list string))
    "workloads" Workloads.names
    (List.map (fun r -> str r "name") (rows "workloads"));
  (match Verdict.bounds_of_json (Lazy.force benchmark_json) with
  | Ok bounds ->
      Alcotest.(check (list string)) "every end-to-end metric has a bound"
        end_to_end (List.map (fun (b : Verdict.bound) -> b.Verdict.metric) bounds)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (l : Layers.metric) ->
      let within what known xs =
        List.iter
          (fun x ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s %s is known" l.Layers.name what x)
              true (List.mem x known))
          xs
      in
      within "should_move" end_to_end l.Layers.should_move;
      within "on" Workloads.names l.Layers.on;
      within "control" Workloads.names l.Layers.control;
      Alcotest.(check bool)
        (l.Layers.name ^ " has a workload") true (l.Layers.on <> []))
    Layers.metrics

(* The committed baseline: every workload with every end-to-end metric
   and a traced pass, the host it ran on, and the per-layer table. *)
let test_baseline () =
  match Report.load_doc "baseline.json" with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check bool) "host cores" true (d.Report.host_cores >= 1);
      Alcotest.(check bool) "OCaml version" true (d.Report.ocaml_version <> "");
      Alcotest.(check (list string))
        "workloads" Workloads.names
        (List.map (fun w -> w.Report.workload) d.Report.workloads);
      List.iter
        (fun (w : Report.workload) ->
          Alcotest.(check bool) (w.Report.workload ^ " correct") true w.Report.correct;
          Alcotest.(check (list string))
            (w.Report.workload ^ " end-to-end metrics")
            (List.map (fun r -> str r "name") (rows "end_to_end"))
            (List.map (fun m -> m.Report.name) w.Report.metrics);
          Alcotest.(check int)
            (w.Report.workload ^ " layer metrics")
            (List.length Layers.metrics) (List.length w.Report.layers))
        d.Report.workloads;
      let table =
        Result.bind (Dsim.Json.parse (Report.read_file "baseline.json")) (fun j ->
            Result.bind (Dsim.Json.member j "per_layer") Dsim.Json.to_list)
      in
      Alcotest.(check int) "per-layer table"
        (List.length Layers.metrics)
        (match table with Ok rows -> List.length rows | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "wallclock"
    [
      ( "wallclock",
        [
          Alcotest.test_case "median and quartiles" `Quick test_stats;
          Alcotest.test_case "verdict rules" `Quick test_verdicts;
          Alcotest.test_case "observer cost or noise" `Quick test_difference;
          Alcotest.test_case "compare rows" `Quick test_rows;
          Alcotest.test_case "result document round trip" `Quick test_round_trip;
          Alcotest.test_case "allocation counted across domains" `Quick
            test_words_across_domains;
          Alcotest.test_case "command line at smoke size" `Quick test_smoke;
          Alcotest.test_case "agrees with BENCHMARK.json" `Quick
            test_benchmark_json;
          Alcotest.test_case "baseline" `Quick test_baseline;
        ] );
    ]
