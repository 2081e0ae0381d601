(* Online MMB (timed arrivals) and the leader-election extension. *)

let test_timed_generators () =
  let rng = Dsim.Rng.create ~seed:0 in
  let arrivals = Mmb.Problem.poisson_arrivals rng ~n:10 ~k:20 ~rate:0.5 in
  Alcotest.(check int) "k arrivals" 20 (List.length arrivals);
  let times = List.map (fun (t, _, _) -> t) arrivals in
  Alcotest.(check bool) "non-decreasing times" true
    (List.sort compare times = times);
  let mean_gap = List.fold_left Float.max 0. times /. 20. in
  Alcotest.(check bool) "mean inter-arrival near 1/rate" true
    (mean_gap > 0.5 && mean_gap < 8.);
  let st = Mmb.Problem.staggered_arrivals ~node:3 ~k:4 ~gap:2.5 in
  Alcotest.(check (list (triple (float 1e-9) int int)))
    "staggered"
    [ (0., 3, 0); (2.5, 3, 1); (5., 3, 2); (7.5, 3, 3) ]
    st

let test_latency_tracking () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let tr = Mmb.Problem.tracker_timed ~dual [ (5., 0, 0) ] in
  Mmb.Problem.on_deliver tr ~node:0 ~msg:0 ~time:5.;
  Mmb.Problem.on_deliver tr ~node:1 ~msg:0 ~time:9.;
  Alcotest.(check (list (pair int (float 1e-9)))) "latency = finish - arrival"
    [ (0, 4.) ]
    (Mmb.Problem.latencies tr)

let test_online_bmmb_completes () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 10) in
  let rng = Dsim.Rng.create ~seed:1 in
  let arrivals = Mmb.Problem.poisson_arrivals rng ~n:10 ~k:8 ~rate:0.1 in
  let res =
    Mmb.Runner.run_bmmb_online ~dual ~fack:10. ~fprog:1.
      ~policy:(Amac.Schedulers.random_compliant ())
      ~arrivals ~seed:2 ~check_compliance:true ()
  in
  Alcotest.(check bool) "complete" true res.Mmb.Runner.complete;
  Alcotest.(check int) "all latencies measured" 8
    (List.length res.Mmb.Runner.latencies);
  Alcotest.(check bool) "latencies positive" true
    (List.for_all (fun (_, l) -> l > 0.) res.Mmb.Runner.latencies);
  (* Completion minus arrival, in arrival order: message 0 arrives at
     0.8215 and completes at 6.8936, so a record of completion times
     reads 6.8936 here. *)
  Alcotest.(check (list (pair int (float 1e-9))))
    "per-message latencies pinned"
    [
      (0, 6.0720749755578396);
      (1, 20.388281338402713);
      (2, 15.568101466268583);
      (3, 7.3644622945919664);
      (4, 7.0730259733989911);
      (5, 23.157558792512845);
      (6, 14.250421113667699);
      (7, 7.90291396313836);
    ]
    res.Mmb.Runner.latencies;
  Alcotest.(check (option (float 1e-9))) "mean latency"
    (Some 12.722104989692374)
    (Mmb.Problem.mean_latency res.Mmb.Runner.latencies);
  Alcotest.(check bool) "no bound for online arrivals" true
    (res.Mmb.Runner.upper_bound = Float.infinity
    && res.Mmb.Runner.within_bound);
  Alcotest.(check int) "compliant" 0
    (List.length res.Mmb.Runner.compliance_violations)

let test_online_low_rate_latency_matches_single_message () =
  (* With arrivals far apart, each message floods alone: latency ~ the
     k = 1 static completion time, independent of k. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 12) in
  let arrivals = Mmb.Problem.staggered_arrivals ~node:0 ~k:5 ~gap:1000. in
  let res =
    Mmb.Runner.run_bmmb_online ~dual ~fack:20. ~fprog:1.
      ~policy:(Amac.Schedulers.adversarial ())
      ~arrivals ~seed:3 ()
  in
  let static =
    Mmb.Runner.run_bmmb ~dual ~fack:20. ~fprog:1.
      ~policy:(Amac.Schedulers.adversarial ())
      ~assignment:[ (0, 0) ] ~seed:3 ()
  in
  Alcotest.(check bool) "complete" true res.Mmb.Runner.complete;
  List.iter
    (fun (_, l) ->
      Alcotest.(check bool) "per-message latency ~ single-message time" true
        (abs_float (l -. static.Mmb.Runner.time) <= 20. +. 1e-6))
    res.Mmb.Runner.latencies

let test_online_lifo_starves () =
  (* Staggered arrivals at one choke node: under LIFO, newer messages
     overtake older ones, inflating the worst latency beyond FIFO's. *)
  let dual = Graphs.Dual.choke ~k:2 in
  let arrivals = Mmb.Problem.staggered_arrivals ~node:0 ~k:10 ~gap:1. in
  let run discipline =
    Mmb.Runner.run_bmmb_online ~dual ~fack:25. ~fprog:1.
      ~policy:(Amac.Schedulers.adversarial ())
      ~arrivals ~seed:4 ~discipline ()
  in
  let fifo = run `Fifo and lifo = run `Lifo in
  let worst r =
    List.fold_left (fun a (_, l) -> Float.max a l) 0. r.Mmb.Runner.latencies
  in
  Alcotest.(check bool) "both complete" true
    (fifo.Mmb.Runner.complete && lifo.Mmb.Runner.complete);
  Alcotest.(check bool) "LIFO worst latency >= FIFO's" true
    (worst lifo >= worst fifo -. 1e-9)

let test_leader_election_line () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 12) in
  let res, violations =
    Mmb.Leader.run ~dual ~fack:10. ~fprog:1.
      ~policy:(Amac.Schedulers.adversarial ())
      ~seed:1 ~check_compliance:true ()
  in
  Alcotest.(check bool) "elected" true res.Mmb.Leader.elected;
  Alcotest.(check (array int)) "all chose max id" (Array.make 12 11)
    res.Mmb.Leader.leaders;
  Alcotest.(check int) "compliant" 0 (List.length violations)

let test_leader_election_custom_ids () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.ring 8) in
  let ids = [| 14; 3; 99; 7; 22; 5; 41; 8 |] in
  let res, _ =
    Mmb.Leader.run ~dual ~fack:10. ~fprog:1.
      ~policy:(Amac.Schedulers.random_compliant ())
      ~seed:2 ~ids ()
  in
  Alcotest.(check bool) "elected" true res.Mmb.Leader.elected;
  Alcotest.(check (array int)) "everyone chose 99" (Array.make 8 99)
    res.Mmb.Leader.leaders

let test_leader_election_components () =
  let g = Graphs.Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let dual = Graphs.Dual.of_equal g in
  let res, _ =
    Mmb.Leader.run ~dual ~fack:5. ~fprog:1.
      ~policy:(Amac.Schedulers.eager ())
      ~seed:3 ()
  in
  Alcotest.(check bool) "elected per component" true res.Mmb.Leader.elected;
  Alcotest.(check (array int)) "component-wise maxima"
    [| 2; 2; 2; 4; 4; 5 |] res.Mmb.Leader.leaders

let test_leader_election_unreliable_links () =
  let rng = Dsim.Rng.create ~seed:7 in
  let g = Graphs.Gen.grid ~rows:4 ~cols:4 in
  let dual = Graphs.Dual.arbitrary_random rng ~g ~extra:10 in
  let ok = ref true in
  List.iter
    (fun (name, make) ->
      let res, _ =
        Mmb.Leader.run ~dual ~fack:8. ~fprog:1. ~policy:(make ()) ~seed:8 ()
      in
      if not res.Mmb.Leader.elected then begin
        ok := false;
        Printf.printf "failed under %s\n" name
      end)
    (Amac.Schedulers.all_standard ());
  Alcotest.(check bool) "elected under all schedulers" true !ok

let suite =
  [
    ( "mmb.online",
      [
        Alcotest.test_case "timed generators" `Quick test_timed_generators;
        Alcotest.test_case "latency tracking" `Quick test_latency_tracking;
        Alcotest.test_case "online BMMB completes" `Quick
          test_online_bmmb_completes;
        Alcotest.test_case "low rate = single-message latency" `Quick
          test_online_low_rate_latency_matches_single_message;
        Alcotest.test_case "LIFO starvation under staggered arrivals" `Quick
          test_online_lifo_starves;
      ] );
    ( "mmb.leader",
      [
        Alcotest.test_case "line" `Quick test_leader_election_line;
        Alcotest.test_case "custom ids" `Quick test_leader_election_custom_ids;
        Alcotest.test_case "disconnected components" `Quick
          test_leader_election_components;
        Alcotest.test_case "unreliable links, all schedulers" `Quick
          test_leader_election_unreliable_links;
      ] );
  ]
