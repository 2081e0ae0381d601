(* The checker is tested three ways: hand-crafted traces that violate each
   axiom must get exactly the expected verdict (below), mutated engine
   traces must be caught (test_compliance_mutation), and engine-produced
   traces must be clean (test_integration). *)

let line2 = lazy (Graphs.Dual.of_equal (Graphs.Gen.line 2))

let trace_of entries =
  let tr = Dsim.Trace.create () in
  List.iter (fun (time, event) -> Dsim.Trace.record tr ~time event) entries;
  tr

let audit ?(fack = 10.) ?(fprog = 2.) ?allow_open dual entries =
  Amac.Compliance.audit ~dual ~fack ~fprog ?allow_open (trace_of entries)

(* The full verdict, order-free: sorted (rule, detail) pairs. *)
let check_verdict ?fack ?fprog ?allow_open dual entries expected =
  Alcotest.(check (list (pair string string)))
    "sorted (rule, detail) verdict" expected
    (List.sort compare
       (List.map
          (fun v -> (v.Amac.Compliance.rule, v.Amac.Compliance.detail))
          (audit ?fack ?fprog ?allow_open dual entries)))

let test_clean_trace () =
  let dual = Lazy.force line2 in
  let entries =
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (1., Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (1., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
  in
  check_verdict dual entries [];
  check_verdict ~allow_open:true dual entries []

let test_rcv_to_non_neighbor () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  check_verdict dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (0.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (1., Dsim.Trace.Rcv { node = 2; msg = 1; instance = 1 });
      (1., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [
      ( "receive-correctness",
        "instance 1 delivered to 2, not a G'-neighbor of sender 0" );
    ]

let test_duplicate_rcv () =
  let dual = Lazy.force line2 in
  check_verdict dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (0.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (0.7, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (1., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [ ("receive-correctness", "instance 1 delivered twice to node 1") ]

let test_rcv_after_ack () =
  let dual = Lazy.force line2 in
  check_verdict dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (0.4, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (0.5, Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
      (0.9, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
    ]
    [
      ( "receive-correctness",
        "instance 1 delivered to 1 at 0.9 after its ack at 0.5" );
      ("receive-correctness", "instance 1 delivered twice to node 1");
    ]

let test_ack_without_g_delivery () =
  let dual = Lazy.force line2 in
  check_verdict dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (1., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [
      ( "ack-correctness",
        "instance 1 acked before delivering to G-neighbor 1" );
    ]

let test_unterminated_instance () =
  let dual = Lazy.force line2 in
  let entries = [ (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 }) ] in
  check_verdict dual entries
    [ ("termination", "instance 1 never terminated") ];
  check_verdict ~allow_open:true dual entries []

let test_late_ack () =
  let dual = Lazy.force line2 in
  check_verdict ~fack:1. dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (0.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (5., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [ ("ack-bound", "instance 1 acked 5 after bcast (Fack = 1)") ]

let test_progress_starvation () =
  (* Node 0 broadcasts for 10 units with Fprog = 2, and node 1 never
     receives anything: the progress bound is violated. *)
  let dual = Lazy.force line2 in
  check_verdict ~fack:10. ~fprog:2. dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (10., Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (10., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [
      ( "progress-bound",
        "receiver 1 starved during [0, 8] (connected span [0, 10], Fprog = \
         2)" );
    ]

let test_progress_satisfied_by_contender () =
  (* Same 10-unit broadcast, but a second open instance (from the same
     G-neighbor here) delivers early and stays open: the paper's contend
     set covers the receiver for that instance's whole lifetime. *)
  let dual = Lazy.force line2 in
  check_verdict ~fack:10. ~fprog:2. dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (1., Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (10., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    []

let test_progress_gap_after_cover_ends () =
  (* Instance 1 covers [_,4] by an early rcv then acks at 4; instance 2 is
     open [0, 12] but only delivers at 12 — the receiver starves on
     (4, 12]. *)
  let g = Graphs.Gen.star 3 in
  let dual = Graphs.Dual.of_equal g in
  (* nodes 1 and 2 are leaves; node 0 the hub receiver *)
  check_verdict ~fack:12. ~fprog:2. dual
    [
      (0., Dsim.Trace.Bcast { node = 1; msg = 1; instance = 1 });
      (0., Dsim.Trace.Bcast { node = 2; msg = 2; instance = 2 });
      (1., Dsim.Trace.Rcv { node = 0; msg = 1; instance = 1 });
      (4., Dsim.Trace.Ack { node = 1; msg = 1; instance = 1 });
      (12., Dsim.Trace.Rcv { node = 0; msg = 2; instance = 2 });
      (12., Dsim.Trace.Ack { node = 2; msg = 2; instance = 2 });
    ]
    [
      ( "progress-bound",
        "receiver 0 starved during [0, 10] (connected span [0, 12], Fprog = \
         2)" );
    ]

let test_enhanced_round_trace_clean () =
  (* Bcast + rcv + abort inside one Fprog round is compliant. *)
  let dual = Lazy.force line2 in
  check_verdict ~fack:10. ~fprog:2. dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (2., Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (2., Dsim.Trace.Abort { node = 0; msg = 1; instance = 1 });
    ]
    []

let suite =
  [
    ( "amac.compliance",
      [
        Alcotest.test_case "clean trace passes" `Quick test_clean_trace;
        Alcotest.test_case "rcv outside G' flagged" `Quick
          test_rcv_to_non_neighbor;
        Alcotest.test_case "duplicate rcv flagged" `Quick test_duplicate_rcv;
        Alcotest.test_case "rcv after ack flagged" `Quick test_rcv_after_ack;
        Alcotest.test_case "ack without G delivery flagged" `Quick
          test_ack_without_g_delivery;
        Alcotest.test_case "unterminated instance" `Quick
          test_unterminated_instance;
        Alcotest.test_case "late ack flagged" `Quick test_late_ack;
        Alcotest.test_case "progress starvation flagged" `Quick
          test_progress_starvation;
        Alcotest.test_case "open contender covers progress" `Quick
          test_progress_satisfied_by_contender;
        Alcotest.test_case "starvation after cover ends" `Quick
          test_progress_gap_after_cover_ends;
        Alcotest.test_case "abort-style round trace is clean" `Quick
          test_enhanced_round_trace_clean;
      ] );
  ]
