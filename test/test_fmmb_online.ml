(* The k-oblivious streaming FMMB composition, for online arrivals. *)

let grey ~seed ~n =
  let rng = Dsim.Rng.create ~seed in
  let side = sqrt (float_of_int n /. 3.) in
  Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side ~c:2.
    ~p:0.4 ~max_tries:1000

let run_online ?(policy = Amac.Enhanced_mac.minimal_random ()) ~dual
    ~arrivals ~seed ~max_rounds () =
  Mmb.Runner.run_fmmb_online ~dual ~fprog:1. ~c:2. ~policy ~arrivals ~seed
    ~max_rounds

let test_batch_arrivals_complete () =
  let failures = ref 0 in
  for seed = 1 to 6 do
    let dual = grey ~seed ~n:30 in
    let rng = Dsim.Rng.create ~seed:(seed * 7) in
    let arrivals =
      Mmb.Problem.at_time_zero (Mmb.Problem.singleton rng ~n:30 ~k:4)
    in
    let res = (run_online ~dual ~arrivals ~seed ~max_rounds:60_000 ()).fmmb in
    if not (res.Mmb.Fmmb.complete && res.Mmb.Fmmb.mis_valid) then
      incr failures
  done;
  Alcotest.(check int) "all batch runs complete" 0 !failures

let test_no_k_in_interface () =
  (* The stream never sees k: feed it one message at a time and confirm it
     keeps working (k is discovered, not configured). *)
  let dual = grey ~seed:11 ~n:25 in
  let arrivals = [ (0., 0, 0); (0., 5, 1); (0., 9, 2); (0., 13, 3) ] in
  let res = run_online ~dual ~arrivals ~seed:2 ~max_rounds:60_000 () in
  Alcotest.(check bool) "complete without knowing k" true
    res.fmmb.Mmb.Fmmb.complete

let test_late_arrivals_disseminated () =
  (* Messages injected long after the stream starts still reach everyone. *)
  let dual = grey ~seed:3 ~n:25 in
  let arrivals = [ (0., 1, 0); (3000., 7, 1); (6000., 2, 2) ] in
  let res = run_online ~dual ~arrivals ~seed:4 ~max_rounds:120_000 () in
  Alcotest.(check bool) "complete" true res.fmmb.Mmb.Fmmb.complete;
  (* The late message cannot have completed before it arrived: its
     latency, measured from its arrival at 6000, is positive. *)
  match List.assoc_opt 2 res.latencies' with
  | Some l ->
      Alcotest.(check bool) "latency positive and bounded" true
        (l > 0. && l < 60_000.)
  | None -> Alcotest.fail "late message incomplete"

let test_streaming_overhead_vs_staged () =
  (* The interleaved stream should cost at most ~3x the staged algorithm on
     a batch workload (factor 2 interleave + scheduling slack). *)
  let dual = grey ~seed:5 ~n:30 in
  let rng = Dsim.Rng.create ~seed:6 in
  let assignment = Mmb.Problem.singleton rng ~n:30 ~k:4 in
  let staged =
    Mmb.Runner.run_fmmb ~dual ~fprog:1. ~c:2.
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~assignment ~seed:7 ()
  in
  let res =
    (run_online ~dual
       ~arrivals:(Mmb.Problem.at_time_zero assignment)
       ~seed:7 ~max_rounds:200_000 ())
      .fmmb
  in
  Alcotest.(check bool) "both complete" true
    (staged.Mmb.Runner.fmmb.Mmb.Fmmb.complete && res.Mmb.Fmmb.complete);
  let ratio =
    float_of_int res.Mmb.Fmmb.total_rounds
    /. float_of_int staged.Mmb.Runner.fmmb.Mmb.Fmmb.total_rounds
  in
  Alcotest.(check bool)
    (Printf.sprintf "overhead ratio %.2f within [0.2, 6]" ratio)
    true
    (ratio > 0.2 && ratio < 6.)

let test_inject_rejects_nothing_and_dedups_delivery () =
  let dual = grey ~seed:8 ~n:20 in
  let res =
    run_online ~policy:(Amac.Enhanced_mac.generous ()) ~dual
      ~arrivals:[ (0., 0, 0) ] ~seed:9 ~max_rounds:60_000 ()
  in
  Alcotest.(check bool) "complete" true res.fmmb.Mmb.Fmmb.complete;
  Alcotest.(check int) "no duplicate deliveries" 0 res.duplicate_deliveries'

let suite =
  [
    ( "mmb.fmmb_online",
      [
        Alcotest.test_case "batch arrivals complete" `Slow
          test_batch_arrivals_complete;
        Alcotest.test_case "k-oblivious interface" `Quick test_no_k_in_interface;
        Alcotest.test_case "late arrivals disseminated" `Slow
          test_late_arrivals_disseminated;
        Alcotest.test_case "streaming overhead vs staged" `Slow
          test_streaming_overhead_vs_staged;
        Alcotest.test_case "delivery dedup" `Quick
          test_inject_rejects_nothing_and_dedups_delivery;
      ] );
  ]
