(* Dsim.Stats and Dsim.Trace_io. *)

let test_summary_basics () =
  let s = Dsim.Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "count" 5 s.Dsim.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 3. s.Dsim.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.Dsim.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5. s.Dsim.Stats.max;
  Alcotest.(check (float 1e-9)) "p50" 3. s.Dsim.Stats.p50;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.) s.Dsim.Stats.stddev

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p90 of 1..100" 90.
    (Dsim.Stats.percentile xs ~p:90.);
  Alcotest.(check (float 1e-9)) "p99" 99. (Dsim.Stats.percentile xs ~p:99.);
  Alcotest.(check (float 1e-9)) "p0 = min" 1. (Dsim.Stats.percentile xs ~p:0.);
  Alcotest.(check (float 1e-9)) "p100 = max" 100.
    (Dsim.Stats.percentile xs ~p:100.);
  Alcotest.check_raises "empty input"
    (Invalid_argument "Stats.percentile: empty input") (fun () ->
      ignore (Dsim.Stats.percentile [] ~p:50.))

let test_histogram () =
  let h = Dsim.Stats.histogram ~bins:2 [ 0.; 1.; 2.; 3. ] in
  match h with
  | [ (lo1, _, c1); (_, hi2, c2) ] ->
      Alcotest.(check (float 1e-9)) "first bin starts at min" 0. lo1;
      Alcotest.(check (float 1e-9)) "last bin ends at max" 3. hi2;
      Alcotest.(check int) "total preserved" 4 (c1 + c2)
  | _ -> Alcotest.fail "expected two buckets"

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let p1 = Dsim.Stats.percentile xs ~p:25. in
      let p2 = Dsim.Stats.percentile xs ~p:75. in
      p1 <= p2)

let sample_trace () =
  let tr = Dsim.Trace.create () in
  Dsim.Trace.record tr ~time:0. (Dsim.Trace.Arrive { node = 1; msg = 0 });
  Dsim.Trace.record tr ~time:0. (Dsim.Trace.Deliver { node = 1; msg = 0 });
  Dsim.Trace.record tr ~time:0.125
    (Dsim.Trace.Bcast { node = 1; msg = 7; instance = 7 });
  Dsim.Trace.record tr ~time:1.5
    (Dsim.Trace.Rcv { node = 2; msg = 7; instance = 7 });
  Dsim.Trace.record tr ~time:2.25
    (Dsim.Trace.Ack { node = 1; msg = 7; instance = 7 });
  Dsim.Trace.record tr ~time:3.
    (Dsim.Trace.Abort { node = 2; msg = 8; instance = 8 });
  tr

let test_jsonl_roundtrip () =
  let tr = sample_trace () in
  let text = Dsim.Trace_io.to_jsonl tr in
  Alcotest.(check int) "six lines" 6
    (List.length
       (List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' text)));
  match Dsim.Trace_io.of_jsonl text with
  | Ok entries ->
      Alcotest.(check bool) "roundtrip equal" true
        (entries = Dsim.Trace.entries tr)
  | Error e -> Alcotest.fail e

let test_jsonl_rejects_garbage () =
  match Dsim.Trace_io.of_jsonl "{\"nope\":1}\n" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e ->
      Alcotest.(check bool) "names the line" true
        (String.length e > 0 && String.sub e 0 6 = "line 1")

let test_file_roundtrip () =
  let tr = sample_trace () in
  let path = Filename.temp_file "amac_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dsim.Trace_io.write_file tr ~path;
      match Dsim.Trace_io.read_file ~path with
      | Ok entries ->
          Alcotest.(check int) "entry count" 6 (List.length entries)
      | Error e -> Alcotest.fail e)

let test_check_against_network () =
  let check = Alcotest.(check (result unit string)) in
  let entries = Dsim.Trace.entries (sample_trace ()) in
  check "the Abort names an instance never broadcast"
    (Error "line 6: instance 8 was never broadcast")
    (Dsim.Trace_io.check ~n:3 entries);
  let entries = List.filteri (fun i _ -> i < 5) entries in
  check "nodes 1 and 2 fit a 3-node network" (Ok ())
    (Dsim.Trace_io.check ~n:3 entries);
  check "node 2 does not fit a 2-node network"
    (Error "line 4: node 2 is not in the 2-node network")
    (Dsim.Trace_io.check ~n:2 entries);
  let rcv time =
    { Dsim.Trace.time; event = Dsim.Trace.Rcv { node = 0; msg = 7; instance = 7 } }
  in
  check "a receipt at its bcast's time" (Ok ())
    (Dsim.Trace_io.check ~n:3 (entries @ [ rcv 0.125 ]));
  check "a receipt before its bcast"
    (Error "line 6: time 0.1 is before instance 7's bcast at 0.125")
    (Dsim.Trace_io.check ~n:3 (entries @ [ rcv 0.1 ]));
  List.iter
    (fun (time, shown) ->
      check "a non-finite time"
        (Error (Printf.sprintf "line 6: time %s is not finite" shown))
        (Dsim.Trace_io.check ~n:3 (entries @ [ rcv time ])))
    [ (infinity, "inf"); (neg_infinity, "-inf"); (nan, "nan") ];
  check "a non-finite arrival"
    (Error "line 1: time inf is not finite")
    (Dsim.Trace_io.check ~n:3
       [ { Dsim.Trace.time = infinity;
           event = Dsim.Trace.Arrive { node = 0; msg = 0 } } ])

let suite =
  [
    ( "dsim.stats",
      [
        Alcotest.test_case "summary basics" `Quick test_summary_basics;
        Alcotest.test_case "percentiles" `Quick test_percentiles;
        Alcotest.test_case "histogram" `Quick test_histogram;
        QCheck_alcotest.to_alcotest prop_percentile_monotone;
      ] );
    ( "dsim.trace_io",
      [
        Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
        Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
        Alcotest.test_case "check against the network" `Quick
          test_check_against_network;
      ] );
  ]
