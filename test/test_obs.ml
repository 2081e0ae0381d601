(* The observability layer: metric registry + histograms, span derivation,
   streaming-compliance parity with the post-hoc auditor, a checked run's
   one checker, engine profiling accessors, trace subscribers, and
   determinism of the JSONL export. *)

module M = Obs.Metrics

let floats_eq = Alcotest.float 1e-12

(* --- registry ----------------------------------------------------------- *)

let test_registry () =
  let m = M.create () in
  let c = M.counter m "events.x" in
  M.incr c;
  M.incr ~by:3 c;
  Alcotest.(check int) "counter accumulates" 4 (M.value c);
  let c' = M.counter m "events.x" in
  M.incr c';
  Alcotest.(check int) "same-name counter is the same cell" 5 (M.value c);
  Alcotest.check_raises "cross-kind re-registration rejected"
    (Invalid_argument "Metrics: events.x registered twice")
    (fun () -> ignore (M.gauge m "events.x"));
  let g = M.gauge m "hw" in
  M.set g 2.;
  M.set_max g 1.;
  M.set_max g 7.;
  let lines = M.snapshot m in
  let names =
    List.map
      (fun j -> Result.get_ok (Dsim.Json.member_str j "name" ~default:""))
      lines
  in
  Alcotest.(check (list string)) "snapshot sorted by name" [ "events.x"; "hw" ]
    names;
  let hw = List.nth lines 1 in
  Alcotest.(check (float 0.)) "set_max keeps the high water" 7.
    (Result.get_ok (Dsim.Json.member_float hw "value" ~default:nan))

let test_volatile_excluded () =
  let m = M.create () in
  ignore (M.counter m "a");
  let g = M.gauge m ~volatile:true "wall" in
  M.set g 0.123;
  M.probe m ~volatile:true "wall2" (fun () -> 9.);
  Alcotest.(check int) "default snapshot drops volatile metrics" 1
    (List.length (M.snapshot m));
  Alcotest.(check int) "include_volatile restores them" 3
    (List.length (M.snapshot ~include_volatile:true m))

(* --- histograms --------------------------------------------------------- *)

let buckets_of m name =
  let line =
    List.find
      (fun j ->
        Result.get_ok (Dsim.Json.member_str j "name" ~default:"") = name)
      (M.snapshot m)
  in
  List.map
    (fun t ->
      match Result.get_ok (Dsim.Json.to_list t) with
      | [ lo; hi; c ] ->
          ( Result.get_ok (Dsim.Json.to_float lo),
            Result.get_ok (Dsim.Json.to_float hi),
            Result.get_ok (Dsim.Json.to_int c) )
      | _ -> Alcotest.fail "bucket triple shape")
    (Result.get_ok
       (Dsim.Json.to_list (Result.get_ok (Dsim.Json.member line "buckets"))))

let test_hist_bucket_boundaries () =
  let m = M.create () in
  let h = M.histogram m ~gamma:2. "h" in
  Alcotest.(check (float 0.)) "boundary 0 is 1" 1. (M.boundary h 0);
  Alcotest.(check (float 0.)) "boundary 3 is gamma^3" 8. (M.boundary h 3);
  (* A value exactly on a boundary belongs to the bucket it opens. *)
  List.iter (M.observe h) [ 1.0; 2.0; 3.999; 0.5; 4.0 ];
  Alcotest.(check (list (triple floats_eq floats_eq Alcotest.int)))
    "half-open [gamma^i, gamma^(i+1)) buckets"
    [ (0.5, 1., 1); (1., 2., 1); (2., 4., 2); (4., 8., 1) ]
    (buckets_of m "h");
  (* Every positive observation lands in a bucket containing it. *)
  List.iter
    (fun v ->
      let m3 = M.create () in
      let h3 = M.histogram m3 "one" in
      M.observe h3 v;
      match buckets_of m3 "one" with
      | [ (lo, hi, 1) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%g inside its bucket [%g, %g)" v lo hi)
            true
            (lo <= v && v < hi)
      | _ -> Alcotest.fail "expected exactly one bucket")
    [ 1e-9; 0.3; 1.0; 1.189207115002721; 17.3; 65536.; 1e12 ]

let test_hist_zeros_and_stats () =
  let m = M.create () in
  let h = M.histogram m ~gamma:2. "h" in
  Alcotest.(check bool) "empty max is nan" true (Float.is_nan (M.hist_max h));
  List.iter (M.observe h) [ 0.; -3.; 5.; 1. ];
  Alcotest.(check int) "count includes zeros" 4 (M.hist_count h);
  Alcotest.(check (float 0.)) "sum" 3. (M.hist_sum h);
  Alcotest.(check (float 0.)) "exact min" (-3.) (M.hist_min h);
  Alcotest.(check (float 0.)) "exact max" 5. (M.hist_max h)

let test_hist_quantiles () =
  let m = M.create () in
  let h = M.histogram m ~gamma:2. "q" in
  List.iter (M.observe h) [ 1.; 2.; 4.; 8. ];
  Alcotest.(check (float 0.)) "q=0.25 -> first bucket's upper edge" 2.
    (M.quantile h 0.25);
  Alcotest.(check (float 0.)) "q=0.5" 4. (M.quantile h 0.5);
  Alcotest.(check (float 0.)) "q=1 clamps to the observed max" 8.
    (M.quantile h 1.);
  let hz = M.histogram m ~gamma:2. "qz" in
  List.iter (M.observe hz) [ 0.; 0.; 0.; 8. ];
  Alcotest.(check (float 0.)) "ranks inside the zeros bucket yield 0" 0.
    (M.quantile hz 0.5);
  Alcotest.(check (float 0.)) "top rank escapes the zeros bucket" 8.
    (M.quantile hz 1.);
  Alcotest.check_raises "gamma must exceed 1"
    (Invalid_argument "Metrics.histogram: gamma must be > 1") (fun () ->
      ignore (M.histogram m ~gamma:1. "bad"))

(* Buckets live in an int array and each boundary is computed once, so a
   warm histogram takes an observation without allocating. *)
let test_hist_observe_allocates_nothing () =
  let m = M.create () in
  let h = M.histogram m "h" in
  let vs = [ 0.3; 1.; 2.5; 17.; 0.; -1.; 1e-3; 4096. ] in
  let observe = M.observe h in
  List.iter observe vs;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    List.iter observe vs
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 8,000 observations" 0. words;
  Alcotest.(check int) "all counted" 8008 (M.hist_count h)

(* --- spans --------------------------------------------------------------- *)

(* Feeds [entries] to [spans] as a run does: [ledger] takes each one
   first. *)
let feed spans ledger entries =
  List.iter
    (fun (time, event) ->
      let entry = { Dsim.Trace.time; event } in
      Mmb.Problem.on_entry ledger entry;
      Obs.Spans.on_entry spans ledger entry)
    entries

(* Nodes 0 and 1 joined by an edge, node 2 alone: a message from node 0
   or 1 is required at those two nodes only. *)
let two_components =
  lazy (Graphs.Dual.of_equal (Graphs.Graph.of_edges ~n:3 [ (0, 1) ]))

let test_span_lifecycle () =
  let m = M.create () in
  let s = Obs.Spans.create ~metrics:m () in
  let dual = Lazy.force two_components in
  feed s
    (Mmb.Problem.tracker ~dual [ (0, 5) ])
    [
      (* Deliver before the arrival is seen: counted, latency skipped. *)
      (1., Dsim.Trace.Deliver { node = 0; msg = 5 });
      (2., Dsim.Trace.Arrive { node = 0; msg = 5 });
      (3., Dsim.Trace.Deliver { node = 1; msg = 5 });
    ];
  Alcotest.(check int) "one message seen" 1 (Obs.Spans.messages_seen s);
  Alcotest.(check int) "complete at its component, node 2 never delivers" 1
    (Obs.Spans.messages_complete s);
  Alcotest.(check int) "frontier counts both deliveries" 2
    (Obs.Spans.total_delivers s);
  Alcotest.(check (float 0.)) "clock follows the last event" 3.
    (Obs.Spans.last_time s);
  let lat = M.histogram m "span.deliver_latency" in
  Alcotest.(check int) "pre-arrival delivery skips the latency histogram" 1
    (M.hist_count lat);
  match Obs.Spans.span_lines s with
  | [ line ] ->
      Alcotest.(check int) "span msg id" 5
        (Result.get_ok (Dsim.Json.member_int line "msg" ~default:(-1)));
      Alcotest.(check (float 0.)) "completion time" 3.
        (Result.get_ok (Dsim.Json.member_float line "complete" ~default:nan));
      Alcotest.(check bool) "first_bcast unknown -> null" true
        (Result.get_ok (Dsim.Json.member line "first_bcast") = Dsim.Json.Null)
  | ls -> Alcotest.failf "expected 1 span line, got %d" (List.length ls)

let test_span_orphans_and_aborts () =
  let m = M.create () in
  let s = Obs.Spans.create ~metrics:m () in
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  feed s
    (Mmb.Problem.tracker ~dual [ (0, 1) ])
    [
      (0., Dsim.Trace.Ack { node = 0; msg = 1; instance = 99 });
      (1., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 7 });
      (2., Dsim.Trace.Abort { node = 0; msg = 1; instance = 7 });
      (* Ack after abort: the instance is gone, so this is an orphan too
         and must not contribute ack latency. *)
      (3., Dsim.Trace.Ack { node = 0; msg = 1; instance = 7 });
    ];
  Alcotest.(check int) "both stray acks counted as orphans" 2
    (M.value (M.counter m "events.orphan"));
  Alcotest.(check int) "aborted instance contributes no ack latency" 0
    (M.hist_count (M.histogram m "mac.ack_latency"))

(* Message ids and instance uids are whatever the trace says; both key
   nothing but a table.  The lines were computed by the spans that kept
   their state in [Hashtbl]s and counted deliveries to n = 2; node 2
   sits in a component of its own, so the ledger completes each message
   where that count did. *)
let test_span_sparse_ids () =
  let m = M.create () in
  let s = Obs.Spans.create ~metrics:m () in
  let big = 1 lsl 40 in
  let dual = Lazy.force two_components in
  feed s
    (Mmb.Problem.tracker ~dual [ (0, big); (1, -5) ])
    [
      (0., Dsim.Trace.Arrive { node = 0; msg = big });
      (0., Dsim.Trace.Arrive { node = 1; msg = -5 });
      (0.5, Dsim.Trace.Deliver { node = 1; msg = 7 });
      (1., Dsim.Trace.Bcast { node = 0; msg = big; instance = -2 });
      (1., Dsim.Trace.Bcast { node = 1; msg = -5; instance = 1 lsl 50 });
      (1.5, Dsim.Trace.Deliver { node = 0; msg = -5 });
      (2., Dsim.Trace.Ack { node = 0; msg = big; instance = -2 });
      (2., Dsim.Trace.Ack { node = 0; msg = big; instance = -2 });
      (2.5, Dsim.Trace.Deliver { node = 1; msg = -5 });
      (3., Dsim.Trace.Deliver { node = 1; msg = big });
      (3., Dsim.Trace.Abort { node = 1; msg = -5; instance = 1 lsl 50 });
      (3.5, Dsim.Trace.Deliver { node = 0; msg = big });
    ];
  Alcotest.(check (list string))
    "span lines, by ascending msg id"
    [
      {|{"kind":"span","msg":-5,"arrive":0,"first_bcast":1,"delivers":2,"last_deliver":2.5,"complete":2.5,"latency":2.5}|};
      {|{"kind":"span","msg":7,"arrive":null,"first_bcast":null,"delivers":1,"last_deliver":0.5,"complete":null,"latency":null}|};
      {|{"kind":"span","msg":1099511627776,"arrive":0,"first_bcast":1,"delivers":2,"last_deliver":3.5,"complete":3.5,"latency":3.5}|};
    ]
    (List.map Dsim.Json.to_string (Obs.Spans.span_lines s));
  Alcotest.(check int) "the second ack of -2 is an orphan" 1
    (M.value (M.counter m "events.orphan"));
  Alcotest.(check int) "one ack latency" 1
    (M.hist_count (M.histogram m "mac.ack_latency"))

(* --- streaming compliance checker ----------------------------------------- *)

(* Allocation pin: spans and the checker take a run's kept entries, fed
   as [Observer.attach]'s subscriber feeds them, at under 2 words per
   entry, setup and [finish] included.  What is left is mostly the boxed
   latency handed to each histogram. *)
let test_observer_words_per_entry () =
  let rng = Dsim.Rng.create ~seed:2 in
  let g = Graphs.Gen.grid ~rows:16 ~cols:16 in
  let dual = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:512 in
  let _, kept =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:20. ~fprog:1.
          ~policy:(Amac.Schedulers.random_compliant ())
          ~assignment:(Mmb.Problem.all_at ~node:0 ~k:8)
          ~seed:2 ~check_compliance:true ~instrument ())
  in
  let entries = Dsim.Trace.entries kept in
  let w0 = Gc.minor_words () in
  let obs = Obs.Observer.create ~n:256 ~dual ~fack:20. ~fprog:1. () in
  let spans = Obs.Observer.spans obs in
  let checker = Option.get (Obs.Observer.monitor obs) in
  let ledger = Mmb.Problem.tracker ~dual [] in
  List.iter
    (fun entry ->
      Mmb.Problem.on_entry ledger entry;
      Obs.Spans.on_entry spans ledger entry;
      Amac.Compliance.on_entry checker entry)
    entries;
  let vs = Obs.Observer.finish obs in
  let per_entry =
    (Gc.minor_words () -. w0) /. float_of_int (List.length entries)
  in
  Alcotest.(check int) "engine trace audits clean" 0 (List.length vs);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per entry, under 2" per_entry)
    true (per_entry < 2.)


(* Allocation pin: a checked run streams its entries through the axiom
   and MMB-specification checkers and keeps none.  Beyond the same run
   with a subscriber that does nothing, it allocates under 2 words per
   entry: the checkers' own columns.  Keeping every entry and auditing
   the list after the run took 11.4. *)
let test_checked_run_words_per_entry () =
  let rng = Dsim.Rng.create ~seed:3 in
  let g = Graphs.Gen.grid ~rows:16 ~cols:16 in
  let dual = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:512 in
  let words ~check_compliance instrument =
    let w0 = Gc.minor_words () in
    let r =
      Mmb.Runner.run_bmmb ~dual ~fack:20. ~fprog:1.
        ~policy:(Amac.Schedulers.random_compliant ())
        ~assignment:(Mmb.Problem.all_at ~node:0 ~k:8)
        ~seed:3 ~check_compliance ~instrument ()
    in
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check int) "no violations" 0
      (List.length r.Mmb.Runner.compliance_violations);
    w
  in
  let entries = ref 0 in
  let idle =
    {
      Mmb.Instrument.none with
      want_trace = true;
      attach =
        (fun _ tr -> Dsim.Trace.subscribe tr (fun _ -> incr entries));
    }
  in
  let base = words ~check_compliance:false idle in
  let checked = words ~check_compliance:true Mmb.Instrument.none in
  let per_entry = (checked -. base) /. float_of_int !entries in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per entry over %d entries, under 2" per_entry
       !entries)
    true (per_entry < 2.)

(* A checked run with an observer takes its verdict from the observer's
   checker, which [Observer.attach] subscribes, and builds no second
   one.  This observer's checker is built with Fack = 0.5 for a run with
   Fack = 8 under the adversary, whose acks come at Fack: it reports a
   late ack for every instance, where a checker of the run's own would
   report nothing. *)
let test_checked_run_takes_observer_checker () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 6) in
  let obs = Obs.Observer.create ~n:6 ~dual ~fack:0.5 ~fprog:1. () in
  let r =
    Obs.Run.bmmb ~dual ~fack:8. ~fprog:1.
      ~policy:(Amac.Schedulers.adversarial ())
      ~assignment:[ (0, 0); (5, 1) ]
      ~seed:1 ~check_compliance:true ~obs ()
  in
  let vs = r.Mmb.Runner.compliance_violations in
  Alcotest.(check bool) "late acks reported" true (vs <> []);
  Alcotest.(check (list string))
    "every finding is ack-bound"
    (List.map (fun _ -> "ack-bound") vs)
    (List.map (fun v -> v.Amac.Compliance.rule) vs);
  Alcotest.(check bool) "the observer's list" true
    (vs = Obs.Observer.finish obs)

let line2 = lazy (Graphs.Dual.of_equal (Graphs.Gen.line 2))

let entries_to_trace entries =
  let tr = Dsim.Trace.create () in
  List.iter (fun (time, event) -> Dsim.Trace.record tr ~time event) entries;
  tr

let test_monitor_callback_fires_at_detection () =
  let dual = Lazy.force line2 in
  let hits = ref [] in
  let mon =
    Amac.Compliance.create ~dual ~fack:10. ~fprog:2.
      ~on_violation:(fun entry v -> hits := (entry, v) :: !hits)
      ()
  in
  Dsim.Trace.iter
    (entries_to_trace
       [
         (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
         (0.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
         (0.7, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
         (1., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
       ])
    (Amac.Compliance.on_entry mon);
  ignore (Amac.Compliance.finish mon);
  match List.rev !hits with
  | [ (Some entry, v) ] ->
      Alcotest.(check string) "rule" "receive-correctness"
        v.Amac.Compliance.rule;
      Alcotest.(check (float 0.)) "fires on the offending entry" 0.7
        entry.Dsim.Trace.time
  | hs -> Alcotest.failf "expected 1 callback with entry, got %d" (List.length hs)

(* --- trace subscribers ---------------------------------------------------- *)

let test_trace_subscribers_without_retention () =
  let tr = Dsim.Trace.create ~enabled:false () in
  let seen = ref 0 in
  Dsim.Trace.subscribe tr (fun _ -> incr seen);
  Dsim.Trace.record tr ~time:0. (Dsim.Trace.Arrive { node = 0; msg = 0 });
  Dsim.Trace.record tr ~time:1. (Dsim.Trace.Arrive { node = 1; msg = 1 });
  Alcotest.(check int) "disabled trace retains nothing" 0 (Dsim.Trace.length tr);
  Alcotest.(check int) "subscribers still see every record" 2 !seen

(* --- engine profiling accessors ------------------------------------------ *)

let test_sim_profiling () =
  let sim = Dsim.Sim.create () in
  ignore (Dsim.Sim.schedule_at ~cat:"a" sim ~time:1. (fun () -> ()));
  ignore (Dsim.Sim.schedule_at ~cat:"a" sim ~time:2. (fun () -> ()));
  let h = Dsim.Sim.schedule_at ~cat:"b" sim ~time:3. (fun () -> ()) in
  ignore (Dsim.Sim.schedule_at sim ~time:4. (fun () -> ()));
  Alcotest.(check int) "high water sees all four" 4
    (Dsim.Sim.heap_high_water sim);
  Dsim.Sim.cancel sim h;
  Alcotest.(check int) "one cancellation" 1 (Dsim.Sim.cancelled_events sim);
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "executed excludes the cancelled event" 3
    (Dsim.Sim.executed_events sim);
  Alcotest.(check int) "pushes" 4 (Dsim.Sim.heap_pushes sim);
  Alcotest.(check (list (pair string Alcotest.int)))
    "per-category event counts, sorted"
    [ ("a", 2) ]
    (List.filter_map
       (fun (name, events, _) -> if name = "a" then Some (name, events) else None)
       (Dsim.Sim.category_stats sim));
  (* A posted event is charged to its handler's category, if it has one. *)
  let a = Dsim.Sim.register ~cat:"a" sim ignore in
  let plain = Dsim.Sim.register sim ignore in
  ignore (Dsim.Sim.post sim ~delays:[| 1. |] ~at:0 a 0);
  ignore (Dsim.Sim.post sim ~delays:[| 1. |] ~at:0 plain 0);
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "posted events executed" 5
    (Dsim.Sim.executed_events sim);
  Alcotest.(check (list (pair string Alcotest.int)))
    "posts counted under their handler's category"
    [ ("a", 3); ("b", 0) ]
    (List.map
       (fun (name, events, _) -> (name, events))
       (Dsim.Sim.category_stats sim))

(* --- end-to-end export: schema, determinism, estimate consistency -------- *)

let observed_run ~seed =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 5) in
  let obs =
    Obs.Observer.create ~n:5 ~dual ~fack:8. ~fprog:1.
      ~meta:[ ("seed", Dsim.Json.Number (float_of_int seed)) ]
      ()
  in
  let kept = Dsim.Trace.create () in
  let res =
    Mmb.Runner.run_bmmb ~dual ~fack:8. ~fprog:1.
      ~policy:(Amac.Schedulers.eager ())
      ~assignment:[ (0, 0); (4, 1) ]
      ~seed ~check_compliance:true
      ~instrument:(Obs.Run.instrument ~obs ~attach:(Kept.attach kept) ())
      ()
  in
  (obs, res, dual, kept)

let test_jsonl_schema_roundtrip () =
  let obs, res, _, _ = observed_run ~seed:3 in
  let lines = Obs.Observer.jsonl obs in
  Alcotest.(check bool) "run completed" true res.Mmb.Runner.complete;
  let kinds =
    List.map
      (fun line ->
        match Dsim.Json.parse line with
        | Error e -> Alcotest.failf "unparseable metrics line %S: %s" line e
        | Ok j ->
            Alcotest.(check string)
              "round-trips through Dsim.Json byte-for-byte" line
              (Dsim.Json.to_string j);
            Result.get_ok (Dsim.Json.member_str j "kind" ~default:"?"))
      lines
  in
  Alcotest.(check string) "meta line leads" "meta" (List.hd kinds);
  Alcotest.(check string) "compliance verdict closes" "compliance"
    (List.nth kinds (List.length kinds - 1));
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "known kind %S" k)
        true
        (List.mem k [ "meta"; "counter"; "gauge"; "histogram"; "span"; "compliance" ]))
    kinds;
  Alcotest.(check int) "one span line per message" 2
    (List.length (List.filter (( = ) "span") kinds));
  (* Verdict agrees with the run and the engine gauge with the result. *)
  let verdict = Result.get_ok (Dsim.Json.parse (List.nth lines (List.length lines - 1))) in
  Alcotest.(check bool) "checked" true
    (Result.get_ok
       (Dsim.Json.to_bool (Result.get_ok (Dsim.Json.member verdict "checked"))));
  Alcotest.(check bool) "ok" true
    (Result.get_ok
       (Dsim.Json.to_bool (Result.get_ok (Dsim.Json.member verdict "ok"))));
  let executed =
    List.find_map
      (fun line ->
        let j = Result.get_ok (Dsim.Json.parse line) in
        if Result.get_ok (Dsim.Json.member_str j "name" ~default:"") = "engine.executed"
        then Some (Result.get_ok (Dsim.Json.member_int j "value" ~default:(-1)))
        else None)
      lines
  in
  Alcotest.(check (option Alcotest.int)) "engine.executed matches the result"
    (Some res.Mmb.Runner.events_executed) executed;
  Alcotest.(check bool) "the run executed events" true
    (res.Mmb.Runner.events_executed > 0)

let test_jsonl_deterministic_across_runs () =
  let obs1, _, _, _ = observed_run ~seed:3 in
  let obs2, _, _, _ = observed_run ~seed:3 in
  Alcotest.(check (list string)) "same seed, byte-identical export"
    (Obs.Observer.jsonl obs1) (Obs.Observer.jsonl obs2);
  let obs3, _, _, _ = observed_run ~seed:4 in
  Alcotest.(check bool) "different seed differs" true
    (Obs.Observer.jsonl obs1 <> Obs.Observer.jsonl obs3)

let test_estimate_consistency () =
  let obs, _, dual, tr = observed_run ~seed:5 in
  let est = Amac.Estimate.estimate ~dual tr in
  let m = Obs.Observer.metrics obs in
  Alcotest.(check (float 0.)) "hist max of mac.ack_latency is est_fack"
    est.Amac.Estimate.est_fack
    (M.hist_max (M.histogram m "mac.ack_latency"));
  (* The largest observed starvation gap is the empirical Fprog that the
     binary search recovers (up to its search tolerance). *)
  Alcotest.(check (float 1e-3)) "max progress gap is est_fprog"
    est.Amac.Estimate.est_fprog
    (M.hist_max (M.histogram m "mac.progress_gap"))

let test_fmmb_spans () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 4) in
  let obs = Obs.Observer.create ~n:4 () in
  let res =
    Obs.Run.fmmb ~dual ~fprog:2. ~c:2.
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~assignment:[ (0, 0); (3, 1) ]
      ~seed:1 ~obs ()
  in
  Alcotest.(check bool) "complete" true res.Mmb.Runner.fmmb.Mmb.Fmmb.complete;
  Alcotest.(check int) "spans saw both messages" 2
    (Obs.Spans.messages_seen (Obs.Observer.spans obs));
  Alcotest.(check int) "both messages completed" 2
    (Obs.Spans.messages_complete (Obs.Observer.spans obs));
  match Obs.Observer.monitor obs with
  | None -> ()
  | Some _ -> Alcotest.fail "FMMB observer must not carry a monitor"

(* --- one ledger: every observer completes where the runner does -------- *)

(* A JSON number, or [None] for [null] or a missing member. *)
let number json key =
  match Dsim.Json.member_opt json key with
  | Some (Dsim.Json.Number f) -> Some f
  | _ -> None

(* The lines of [docs] whose ["kind"] is [kind], by their ["msg"]. *)
let by_msg kind docs =
  List.filter_map
    (fun d ->
      match (Dsim.Json.member_opt d "kind", number d "msg") with
      | Some (Dsim.Json.String k), Some m when k = kind ->
          Some (int_of_float m, d)
      | _ -> None)
    docs

(* One observed run: the instrument hands its ledger to spans,
   provenance, the Perfetto collector and a trace that keeps the
   entries, and to this harness. *)
let observed ~dual run =
  let n = Graphs.Dual.n dual in
  let obs = Obs.Observer.create ~n () in
  let prov = Obs.Provenance.create ~n () in
  let perfetto = Obs.Tracing.Sim.create () in
  let kept = Dsim.Trace.create () in
  let ledger = ref None in
  let attach l tr =
    ledger := Some l;
    Obs.Provenance.attach prov l tr;
    Obs.Tracing.Sim.attach perfetto l tr;
    Kept.attach kept l tr
  in
  let r = run (Obs.Run.instrument ~obs ~attach ()) in
  (r, (obs, prov, Obs.Tracing.Sim.finish perfetto, kept), Option.get !ledger)

(* Per message of [msgs]: the runner's completion ([runner]) is that of
   the spans, the provenance summary and the end of the Perfetto message
   slice; provenance's [reached] counts the message's [Deliver] entries;
   and [Properties], fed the kept entries alone, finds every message
   complete. *)
let agree tag ~dual ~msgs ~runner (obs, prov, perfetto, kept) =
  let spans = by_msg "span" (Obs.Spans.span_lines (Obs.Observer.spans obs)) in
  let provenance =
    by_msg "msg"
      (List.map
         (fun l -> Result.get_ok (Dsim.Json.parse l))
         (Obs.Provenance.jsonl prov))
  in
  let slice_ends =
    let doc = Result.get_ok (Dsim.Json.parse (Obs.Tracing.to_string perfetto)) in
    Result.get_ok
      (Result.bind (Dsim.Json.member doc "traceEvents") Dsim.Json.to_list)
    |> List.filter_map (fun e ->
           match (Dsim.Json.member_opt e "ph", number e "id", number e "ts") with
           | Some (Dsim.Json.String "e"), Some id, Some ts ->
               Some (int_of_float id, ts /. 1000.)
           | _ -> None)
  in
  let delivers msg =
    List.length
      (List.filter
         (fun e ->
           match e.Dsim.Trace.event with
           | Dsim.Trace.Deliver { msg = m; _ } -> m = msg
           | _ -> false)
         (Dsim.Trace.entries kept))
  in
  let check what msg want got =
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "%s m%d: %s" tag msg what)
      want got
  in
  List.iter
    (fun msg ->
      let want = runner msg in
      Alcotest.(check bool)
        (Printf.sprintf "%s m%d completes" tag msg)
        true (Option.is_some want);
      check "spans" msg want (number (List.assoc msg spans) "complete");
      let p = List.assoc msg provenance in
      check "provenance" msg want (number p "complete");
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "%s m%d: provenance reached" tag msg)
        (Some (float_of_int (delivers msg)))
        (number p "reached");
      check "Perfetto slice end" msg want (List.assoc_opt msg slice_ends))
    msgs;
  Alcotest.(check (list string))
    (tag ^ ": Properties finds every message complete")
    []
    (List.filter
       (fun f ->
         let suffix = "(condition (a))" in
         let ls = String.length f and lx = String.length suffix in
         ls >= lx && String.sub f (ls - lx) lx = suffix)
       (Mmb.Properties.check ~dual kept))

let test_observers_complete_with_runner () =
  let rng = Dsim.Rng.create ~seed:4 in
  let dual =
    Graphs.Dual.r_restricted_random rng ~g:(Graphs.Gen.grid ~rows:4 ~cols:5)
      ~r:2 ~extra:6
  in
  let assignment = [ (0, 0); (7, 1); (19, 2) ] in
  let msgs = List.map snd assignment in
  let policy = Amac.Schedulers.random_compliant () in
  (* Serial BMMB. *)
  let r, seen, _ =
    observed ~dual (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:8. ~fprog:1. ~policy ~assignment
          ~seed:5 ~check_compliance:true ~instrument ())
  in
  Alcotest.(check (list string)) "serial: no MMB-spec findings" []
    r.Mmb.Runner.spec_violations;
  agree "serial" ~dual ~msgs
    ~runner:(fun msg -> List.assoc_opt msg r.Mmb.Runner.latencies)
    seen;
  (* P = 2: the ledger reads the merged trace, and the engine's own
     count agrees with it. *)
  let r, seen, ledger =
    observed ~dual (fun instrument ->
        Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1. ~policy ~assignment
          ~seed:5 ~partitions:2 ~domains:1 ~check_compliance:true ~instrument
          ())
  in
  Alcotest.(check bool) "P=2: engine and ledger complete" true
    (r.Mmb.Runner.pd_complete && Mmb.Problem.complete ledger);
  Alcotest.(check (option (float 1e-9))) "P=2: engine time is the ledger's"
    (Some r.Mmb.Runner.pd_time) (Mmb.Problem.completion_time ledger);
  agree "P=2" ~dual ~msgs
    ~runner:(fun msg -> Mmb.Problem.message_completion_time ledger ~msg)
    seen;
  (* Two disjoint 10-node lines: the message need reach its own line
     only. *)
  let lines =
    Graphs.Dual.of_equal
      (Graphs.Graph.of_edges ~n:20
         (List.init 9 (fun i -> (i, i + 1))
         @ List.init 9 (fun i -> (10 + i, 11 + i))))
  in
  let r, seen, _ =
    observed ~dual:lines (fun instrument ->
        Mmb.Runner.run_bmmb ~dual:lines ~fack:8. ~fprog:1. ~policy
          ~assignment:[ (0, 0) ] ~seed:5 ~check_compliance:true ~instrument
          ())
  in
  agree "two lines" ~dual:lines ~msgs:[ 0 ]
    ~runner:(fun msg -> List.assoc_opt msg r.Mmb.Runner.latencies)
    seen;
  (* FMMB: the driver dedups through the ledger, and its lifecycle is
     what the observers see. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 20) in
  let assignment = [ (6, 0); (13, 1) ] in
  let r, seen, _ =
    observed ~dual (fun instrument ->
        Mmb.Runner.run_fmmb ~dual ~fprog:1. ~c:2.
          ~policy:(Amac.Enhanced_mac.minimal_random ())
          ~assignment ~seed:3 ~instrument ())
  in
  agree "FMMB" ~dual ~msgs:(List.map snd assignment)
    ~runner:(fun msg -> List.assoc_opt msg r.Mmb.Runner.latencies')
    seen

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "metric registry" `Quick test_registry;
        Alcotest.test_case "volatile metrics excluded by default" `Quick
          test_volatile_excluded;
        Alcotest.test_case "histogram bucket boundaries" `Quick
          test_hist_bucket_boundaries;
        Alcotest.test_case "histogram zeros and exact stats" `Quick
          test_hist_zeros_and_stats;
        Alcotest.test_case "histogram quantiles" `Quick test_hist_quantiles;
        Alcotest.test_case "histogram observe allocates nothing" `Quick
          test_hist_observe_allocates_nothing;
        Alcotest.test_case "span lifecycle, out-of-order events" `Quick
          test_span_lifecycle;
        Alcotest.test_case "span orphans and aborted instances" `Quick
          test_span_orphans_and_aborts;
        Alcotest.test_case "span lines for sparse and negative ids" `Quick
          test_span_sparse_ids;
        Alcotest.test_case "observer words per entry" `Quick
          test_observer_words_per_entry;
        Alcotest.test_case "checked run words per entry" `Quick
          test_checked_run_words_per_entry;
        Alcotest.test_case "checked run takes the observer's checker" `Quick
          test_checked_run_takes_observer_checker;
        Alcotest.test_case "violation callback at detection time" `Quick
          test_monitor_callback_fires_at_detection;
        Alcotest.test_case "subscribers on a disabled trace" `Quick
          test_trace_subscribers_without_retention;
        Alcotest.test_case "engine profiling accessors" `Quick
          test_sim_profiling;
        Alcotest.test_case "metrics JSONL schema + Json round-trip" `Quick
          test_jsonl_schema_roundtrip;
        Alcotest.test_case "metrics JSONL determinism across runs" `Quick
          test_jsonl_deterministic_across_runs;
        Alcotest.test_case "empirical Fack/Fprog match Estimate" `Quick
          test_estimate_consistency;
        Alcotest.test_case "FMMB span-only observer" `Quick test_fmmb_spans;
        Alcotest.test_case "observers complete where the runner does" `Quick
          test_observers_complete_with_runner;
      ] );
  ]
