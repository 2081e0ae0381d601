(* Parameter estimation from observed traces. *)

let test_estimates_engine_parameters () =
  (* Run BMMB on the model with known Fack/Fprog and check the estimates
     land at (or below) the configured constants. *)
  let fack = 12. and fprog = 2. in
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 8) in
  let _, tr =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack ~fprog
          ~policy:(Amac.Schedulers.adversarial ())
          ~assignment:[ (0, 0); (7, 1) ] ~seed:1 ~check_compliance:true
          ~instrument ())
  in
  let est = Amac.Estimate.estimate ~dual tr in
  Alcotest.(check bool) "est Fack <= configured Fack" true
    (est.Amac.Estimate.est_fack <= fack +. 1e-9);
  Alcotest.(check bool) "adversary saturates Fack" true
    (est.Amac.Estimate.est_fack >= fack -. 1e-6);
  Alcotest.(check bool) "est Fprog <= configured Fprog" true
    (est.Amac.Estimate.est_fprog <= fprog +. 1e-3);
  Alcotest.(check bool) "watchdog runs close to Fprog" true
    (est.Amac.Estimate.est_fprog >= 0.5 *. fprog);
  Alcotest.(check bool) "counts populated" true
    (est.Amac.Estimate.acks_observed > 0
    && est.Amac.Estimate.rcvs_observed > 0)

let test_eager_trace_estimates_small () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.star 6) in
  let _, tr =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:50. ~fprog:5.
          ~policy:(Amac.Schedulers.eager ())
          ~assignment:[ (0, 0) ] ~seed:2 ~check_compliance:true ~instrument
          ())
  in
  let est = Amac.Estimate.estimate ~dual tr in
  (* Eager acks at 0.1 * Fprog = 0.5: far below the nominal bound. *)
  Alcotest.(check bool) "eager MAC looks fast" true
    (est.Amac.Estimate.est_fack < 1.)

let test_estimate_on_decay_mac () =
  (* The implemented MAC's empirical parameters: ack latency equals the
     back-off schedule; Fprog is much smaller. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.star 9) in
  let rng = Dsim.Rng.create ~seed:3 in
  let params = Radio.Decay.default_params ~n:9 ~max_contention:8 in
  let trace = Dsim.Trace.create () in
  let mac = Radio.Decay.create ~dual ~params ~rng ~trace () in
  let h = Radio.Decay.handle mac in
  let pending = ref 8 in
  for v = 0 to 8 do
    h.Amac.Mac_handle.h_attach ~node:v
      {
        Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ());
        on_ack = (fun _ -> decr pending);
      }
  done;
  for v = 1 to 8 do
    h.Amac.Mac_handle.h_bcast ~node:v v
  done;
  ignore (Radio.Decay.run mac ~max_slots:500_000 ~stop:(fun () -> !pending = 0));
  let est = Amac.Estimate.estimate ~dual trace in
  Alcotest.(check (float 1e-6)) "ack latency = the back-off schedule"
    (Radio.Decay.nominal_fack mac)
    est.Amac.Estimate.est_fack;
  Alcotest.(check bool)
    (Printf.sprintf "empirical Fprog (%.1f) << Fack (%.1f)"
       est.Amac.Estimate.est_fprog est.Amac.Estimate.est_fack)
    true
    (est.Amac.Estimate.est_fprog < est.Amac.Estimate.est_fack /. 4.)

(* A trace whose one instance acks at 1e308, past max_float / 2: the
   binary search for Fprog must end, as it did before its midpoint
   overflowed near there, with both bounds finite. *)
let test_estimate_near_max_float () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let tr = Dsim.Trace.create () in
  Dsim.Trace.record tr ~time:0.
    (Dsim.Trace.Bcast { node = 0; msg = 0; instance = 0 });
  Dsim.Trace.record tr ~time:1e308
    (Dsim.Trace.Ack { node = 0; msg = 0; instance = 0 });
  let est = Amac.Estimate.estimate ~dual tr in
  Alcotest.(check (float 0.)) "est Fack" 1e308 est.Amac.Estimate.est_fack;
  Alcotest.(check bool) "est Fprog finite" true
    (Float.is_finite est.Amac.Estimate.est_fprog)

let suite =
  [
    ( "amac.estimate",
      [
        Alcotest.test_case "recovers the engine's constants" `Quick
          test_estimates_engine_parameters;
        Alcotest.test_case "a trace near max_float ends" `Quick
          test_estimate_near_max_float;
        Alcotest.test_case "eager traces look fast" `Quick
          test_eager_trace_estimates_small;
        Alcotest.test_case "decay MAC: empirical Fprog << Fack" `Slow
          test_estimate_on_decay_mac;
      ] );
  ]
