(* The abort primitive and the round synchronizer that builds lock-step
   rounds from it (Section 4.1's construction). *)

let make_mac ?(mode = Amac.Round_sync.Minimal) ?(fack = 100.) ?(fprog = 1.)
    ?eps_abort ~dual ~seed () =
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed in
  let trace = Dsim.Trace.create () in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack ~fprog
      ~policy:(Amac.Round_sync.policy ~mode)
      ~rng ?eps_abort ~trace ()
  in
  (sim, mac, trace)

(* --- abort primitive ----------------------------------------------------- *)

let test_abort_frees_sender () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:0 in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:50. ~fprog:1.
      ~policy:(Amac.Schedulers.adversarial ()) ~rng ()
  in
  for node = 0 to 1 do
    Amac.Standard_mac.attach mac ~node
      { Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ()); on_ack = (fun _ -> ()) }
  done;
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 1));
  ignore
    (Dsim.Sim.schedule_at sim ~time:0.5 (fun () ->
         Alcotest.(check bool) "busy before abort" true
           (Amac.Standard_mac.busy mac ~node:0);
         Amac.Standard_mac.abort mac ~node:0;
         Alcotest.(check bool) "free after abort" false
           (Amac.Standard_mac.busy mac ~node:0);
         (* and the node may broadcast again immediately *)
         Amac.Standard_mac.bcast mac ~node:0 2;
         Amac.Standard_mac.abort mac ~node:0));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "two aborts" 2 (Amac.Standard_mac.abort_count mac);
  Alcotest.(check int) "no acks" 0 (Amac.Standard_mac.ack_count mac)

let test_abort_without_broadcast_rejected () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:0 in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:1.
      ~policy:(Amac.Schedulers.eager ()) ~rng ()
  in
  Amac.Standard_mac.attach mac ~node:0
    { Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ()); on_ack = (fun _ -> ()) };
  Alcotest.(check bool) "not-well-formed raised" true
    (try
       Amac.Standard_mac.abort mac ~node:0;
       false
     with Amac.Standard_mac.Not_well_formed _ -> true)

let test_abort_cancels_future_deliveries () =
  (* eps_abort = 0: aborting before the (Fack-scheduled) deliveries means
     nobody ever receives. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:0 in
  let got = ref 0 in
  (* fprog = fack = 20 so the watchdog (at +20) never beats the abort. *)
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:20. ~fprog:20.
      ~policy:(Amac.Schedulers.adversarial ()) ~rng ()
  in
  for node = 0 to 1 do
    Amac.Standard_mac.attach mac ~node
      {
        Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> incr got);
        on_ack = (fun _ -> ());
      }
  done;
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 7));
  ignore
    (Dsim.Sim.schedule_at sim ~time:1. (fun () ->
         Amac.Standard_mac.abort mac ~node:0));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "no deliveries after abort" 0 !got

let test_abort_trace_compliant () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let sim, mac, trace = make_mac ~dual ~seed:3 () in
  for node = 0 to 2 do
    Amac.Standard_mac.attach mac ~node
      { Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ()); on_ack = (fun _ -> ()) }
  done;
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:1 1));
  ignore
    (Dsim.Sim.schedule_at sim ~time:1. (fun () ->
         Amac.Standard_mac.abort mac ~node:1));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "compliant" 0
    (List.length (Amac.Compliance.audit ~dual ~fack:100. ~fprog:1. trace))

(* --- round synchronizer -------------------------------------------------- *)

let collect_rounds ~mode ~dual ~seed ~rounds actions =
  (* [actions v round] gives each node's action; returns per-node inbox
     logs: (round, bodies received in previous round). *)
  let _, mac, trace = make_mac ~mode ~dual ~seed () in
  let rs = Amac.Round_sync.create ~mac () in
  let n = Graphs.Dual.n dual in
  let logs = Array.make n [] in
  for v = 0 to n - 1 do
    Amac.Round_sync.set_node rs ~node:v (fun ~round ~inbox ->
        logs.(v) <-
          (round, List.map (fun e -> e.Amac.Message.body) inbox) :: logs.(v);
        actions v round)
  done;
  let executed =
    Amac.Round_sync.run_until rs ~max_rounds:rounds ~stop:(fun () -> false)
  in
  (executed, logs, trace, mac)

let test_round_sync_single_broadcaster () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let actions v round =
    if v = 0 && round = 0 then Amac.Enhanced_mac.Broadcast "hi"
    else Amac.Enhanced_mac.Listen
  in
  let executed, logs, trace, _ =
    collect_rounds ~mode:Amac.Round_sync.Minimal ~dual ~seed:1 ~rounds:3
      actions
  in
  Alcotest.(check int) "three rounds" 3 executed;
  let inbox_at v round =
    match List.assoc_opt round logs.(v) with Some l -> l | None -> []
  in
  Alcotest.(check (list string)) "neighbor hears it in round 1" [ "hi" ]
    (inbox_at 1 1);
  Alcotest.(check (list string)) "distant node hears nothing" []
    (inbox_at 2 1);
  Alcotest.(check int) "trace is axiom-compliant" 0
    (List.length
       (Amac.Compliance.audit ~dual ~fack:100. ~fprog:1. ~allow_open:true
          trace))

let test_round_sync_contention_minimal () =
  (* Both endpoints broadcast; the middle node must receive exactly one
     message per round under Minimal. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let actions v round =
    if (v = 0 || v = 2) && round < 4 then
      Amac.Enhanced_mac.Broadcast (Printf.sprintf "%d/%d" v round)
    else Amac.Enhanced_mac.Listen
  in
  let _, logs, _, _ =
    collect_rounds ~mode:Amac.Round_sync.Minimal ~dual ~seed:2 ~rounds:5
      actions
  in
  List.iter
    (fun (round, inbox) ->
      if round >= 1 && round <= 4 then
        Alcotest.(check int)
          (Printf.sprintf "one delivery in round %d" round)
          1 (List.length inbox))
    logs.(1)

let test_round_sync_generous_delivers_all () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let actions v round =
    if (v = 0 || v = 2) && round = 0 then
      Amac.Enhanced_mac.Broadcast (string_of_int v)
    else Amac.Enhanced_mac.Listen
  in
  let _, logs, _, _ =
    collect_rounds ~mode:Amac.Round_sync.Generous ~dual ~seed:3 ~rounds:2
      actions
  in
  match List.assoc_opt 1 logs.(1) with
  | Some inbox ->
      Alcotest.(check (list string)) "both messages" [ "0"; "2" ]
        (List.sort compare inbox)
  | None -> Alcotest.fail "no round-1 record"

let test_round_sync_matches_enhanced_reachability () =
  (* A deterministic flooding automaton must reach the same nodes in the
     same rounds over both executions (Generous mode = generous policy). *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 6) in
  let n = 6 in
  let flooding got v =
    fun ~round ~inbox ->
      if inbox <> [] then got.(v) <- min got.(v) round;
      if round = 0 && v = 0 then Amac.Enhanced_mac.Broadcast "f"
      else if got.(v) < round && got.(v) = round - 1 then
        Amac.Enhanced_mac.Broadcast "f"
      else Amac.Enhanced_mac.Listen
  in
  (* over Enhanced_mac *)
  let got_a = Array.make n max_int in
  got_a.(0) <- 0;
  let rng = Dsim.Rng.create ~seed:5 in
  let emac =
    Amac.Enhanced_mac.create ~dual ~fprog:1.
      ~policy:(Amac.Enhanced_mac.generous ()) ~rng ()
  in
  for v = 0 to n - 1 do
    Amac.Enhanced_mac.set_node emac ~node:v (flooding got_a v)
  done;
  ignore (Amac.Enhanced_mac.run_until emac ~max_rounds:10 ~stop:(fun () -> false));
  (* over Round_sync *)
  let got_b = Array.make n max_int in
  got_b.(0) <- 0;
  let _, mac, _ = make_mac ~mode:Amac.Round_sync.Generous ~dual ~seed:5 () in
  let rs = Amac.Round_sync.create ~mac () in
  for v = 0 to n - 1 do
    Amac.Round_sync.set_node rs ~node:v (flooding got_b v)
  done;
  ignore (Amac.Round_sync.run_until rs ~max_rounds:10 ~stop:(fun () -> false));
  Alcotest.(check (array int)) "same reachability rounds" got_a got_b

let test_round_sync_stop () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let _, mac, _ = make_mac ~dual ~seed:6 () in
  let rs = Amac.Round_sync.create ~mac () in
  for v = 0 to 1 do
    Amac.Round_sync.set_node rs ~node:v (fun ~round:_ ~inbox:_ ->
        Amac.Enhanced_mac.Listen)
  done;
  let executed =
    Amac.Round_sync.run_until rs ~max_rounds:100 ~stop:(fun () ->
        Amac.Round_sync.round rs >= 7)
  in
  Alcotest.(check int) "stopped after 7" 7 executed

(* --- FMMB over the continuous backend ------------------------------------ *)

let test_fmmb_over_continuous_engine () =
  let rng = Dsim.Rng.create ~seed:9 in
  let dual =
    Graphs.Dual.grey_zone_connected rng ~n:30 ~width:3.2 ~height:3.2 ~c:2.
      ~p:0.4 ~max_tries:500
  in
  let assignment = Mmb.Problem.singleton rng ~n:30 ~k:3 in
  let res =
    Mmb.Runner.run_fmmb ~dual ~fprog:1. ~c:2.
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~assignment ~seed:10
      ~backend:(Mmb.Fmmb.Continuous Amac.Round_sync.Minimal) ()
  in
  Alcotest.(check bool) "complete over abort-constructed rounds" true
    res.Mmb.Runner.fmmb.Mmb.Fmmb.complete;
  Alcotest.(check bool) "MIS valid" true res.Mmb.Runner.fmmb.Mmb.Fmmb.mis_valid

let suite =
  [
    ( "amac.round_sync",
      [
        Alcotest.test_case "abort frees the sender" `Quick
          test_abort_frees_sender;
        Alcotest.test_case "abort without broadcast rejected" `Quick
          test_abort_without_broadcast_rejected;
        Alcotest.test_case "abort cancels future deliveries" `Quick
          test_abort_cancels_future_deliveries;
        Alcotest.test_case "aborted trace is compliant" `Quick
          test_abort_trace_compliant;
        Alcotest.test_case "single broadcaster per round" `Quick
          test_round_sync_single_broadcaster;
        Alcotest.test_case "minimal contention: exactly one rcv" `Quick
          test_round_sync_contention_minimal;
        Alcotest.test_case "generous: all contenders delivered" `Quick
          test_round_sync_generous_delivers_all;
        Alcotest.test_case "flooding matches Enhanced_mac" `Quick
          test_round_sync_matches_enhanced_reachability;
        Alcotest.test_case "run_until stop" `Quick test_round_sync_stop;
        Alcotest.test_case "FMMB end-to-end over continuous rounds" `Slow
          test_fmmb_over_continuous_engine;
      ] );
  ]

(* --- eps_abort: late deliveries after an abort ------------------------------ *)

let test_eps_abort_allows_imminent_delivery () =
  (* Plan a delivery at t = 2; abort at t = 1.5 with eps_abort = 1: the
     delivery is within the window and still lands. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:0 in
  let fixed_policy =
    {
      Amac.Mac_intf.pol_name = "fixed";
      pol_plan =
        (fun ctx ->
          let p = ctx.Amac.Mac_intf.bc_plan in
          Amac.Mac_intf.set_ack p ~delay:ctx.Amac.Mac_intf.bc_fack;
          Amac.Mac_intf.deliver_all p ctx.Amac.Mac_intf.bc_g_neighbors
            ~delay:2.);
      pol_forced = (fun _ -> 0);
      pol_reads_received = false;
    }
  in
  let trace = Dsim.Trace.create () in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:10. ~policy:fixed_policy
      ~rng ~eps_abort:1. ~trace ()
  in
  let got = ref 0 in
  for node = 0 to 1 do
    Amac.Standard_mac.attach mac ~node
      {
        Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> incr got);
        on_ack = (fun _ -> ());
      }
  done;
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 9));
  ignore
    (Dsim.Sim.schedule_at sim ~time:1.5 (fun () ->
         Amac.Standard_mac.abort mac ~node:0));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "late delivery within eps landed" 1 !got;
  Alcotest.(check int) "trace is compliant with the eps window" 0
    (List.length
       (Amac.Compliance.audit ~dual ~fack:10. ~fprog:10. ~eps_abort:1. trace))

let test_eps_abort_blocks_far_delivery () =
  (* Same setup, but the delivery is planned at t = 5, far beyond
     eps_abort: it must be suppressed. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:0 in
  let fixed_policy =
    {
      Amac.Mac_intf.pol_name = "fixed";
      pol_plan =
        (fun ctx ->
          let p = ctx.Amac.Mac_intf.bc_plan in
          Amac.Mac_intf.set_ack p ~delay:ctx.Amac.Mac_intf.bc_fack;
          Amac.Mac_intf.deliver_all p ctx.Amac.Mac_intf.bc_g_neighbors
            ~delay:5.);
      pol_forced = (fun _ -> 0);
      pol_reads_received = false;
    }
  in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:10. ~policy:fixed_policy
      ~rng ~eps_abort:1. ()
  in
  let got = ref 0 in
  for node = 0 to 1 do
    Amac.Standard_mac.attach mac ~node
      {
        Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> incr got);
        on_ack = (fun _ -> ());
      }
  done;
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 9));
  ignore
    (Dsim.Sim.schedule_at sim ~time:1.5 (fun () ->
         Amac.Standard_mac.abort mac ~node:0));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "far delivery suppressed" 0 !got

let eps_suite =
  ( "amac.eps_abort",
    [
      Alcotest.test_case "imminent delivery survives the abort" `Quick
        test_eps_abort_allows_imminent_delivery;
      Alcotest.test_case "distant delivery is cancelled" `Quick
        test_eps_abort_blocks_far_delivery;
    ] )

let suite = suite @ [ eps_suite ]
