let run ?(seed = 0) ?(fack = 8.) ?(fprog = 1.) ?(policy = Amac.Schedulers.eager ())
    ?discipline ?(check_compliance = true) dual assignment =
  Mmb.Runner.run_bmmb ~dual ~fack ~fprog ~policy ~assignment ~seed ?discipline
    ~check_compliance ()

let test_single_message_line () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 6) in
  let res = run dual [ (0, 0) ] in
  Alcotest.(check bool) "complete" true res.Mmb.Runner.complete;
  Alcotest.(check bool) "within paper bound" true res.Mmb.Runner.within_bound;
  Alcotest.(check int) "no duplicate deliveries" 0
    res.Mmb.Runner.duplicate_deliveries;
  Alcotest.(check int) "compliant" 0
    (List.length res.Mmb.Runner.compliance_violations);
  (* Every node broadcasts each message exactly once: n * k broadcasts. *)
  Alcotest.(check int) "bcasts = n*k" 6 res.Mmb.Runner.bcasts

let test_multi_message_star () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.star 8) in
  let assignment = Mmb.Problem.all_at ~node:0 ~k:5 in
  let res = run dual assignment in
  Alcotest.(check bool) "complete" true res.Mmb.Runner.complete;
  Alcotest.(check bool) "within bound" true res.Mmb.Runner.within_bound;
  Alcotest.(check int) "bcasts = n*k" (8 * 5) res.Mmb.Runner.bcasts

let test_disconnected () =
  let g = Graphs.Graph.of_edges ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  let dual = Graphs.Dual.of_equal g in
  let res = run dual [ (0, 0); (3, 1) ] in
  Alcotest.(check bool) "both components complete" true res.Mmb.Runner.complete

(* The order in which node 1 of a 2-node line delivers messages 10, 20
   and 30, which arrive at node 0 in that order at time 0, under the
   adversarial scheduler and [discipline]. *)
let two_node_delivery_order ?discipline () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let order = ref [] in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:1 in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:5. ~fprog:5.
      ~policy:(Amac.Schedulers.adversarial ()) ~rng ()
  in
  let bmmb =
    Mmb.Bmmb.install ?discipline ~mac:(Amac.Mac_handle.of_standard mac)
      ~on_deliver:(fun ~node ~msg ~time:_ ->
        if node = 1 then order := msg :: !order)
      ()
  in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Mmb.Bmmb.arrive bmmb ~node:0 ~msg:10;
         Mmb.Bmmb.arrive bmmb ~node:0 ~msg:20;
         Mmb.Bmmb.arrive bmmb ~node:0 ~msg:30));
  ignore (Dsim.Sim.run sim);
  List.rev !order

let test_fifo_order_preserved () =
  (* Messages leave node 0 in FIFO order and arrive in that order. *)
  Alcotest.(check (list int)) "FIFO delivery order" [ 10; 20; 30 ]
    (two_node_delivery_order ())

let test_lifo_order () =
  (* 10 goes out as it arrives; 20 and 30 wait, and the later one leaves
     first. *)
  Alcotest.(check (list int)) "LIFO delivery order" [ 10; 30; 20 ]
    (two_node_delivery_order ~discipline:`Lifo ())

let test_lifo_discipline () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 4) in
  let assignment = Mmb.Problem.all_at ~node:0 ~k:3 in
  let res = run ~discipline:`Lifo dual assignment in
  Alcotest.(check bool) "LIFO variant still solves MMB" true
    res.Mmb.Runner.complete

let test_queue_introspection () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:2 in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:100. ~fprog:10.
      ~policy:(Amac.Schedulers.adversarial ()) ~rng ()
  in
  let bmmb =
    Mmb.Bmmb.install ~mac:(Amac.Mac_handle.of_standard mac)
      ~on_deliver:(fun ~node:_ ~msg:_ ~time:_ -> ())
      ()
  in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Mmb.Bmmb.arrive bmmb ~node:0 ~msg:1;
         Mmb.Bmmb.arrive bmmb ~node:0 ~msg:2));
  ignore (Dsim.Sim.run ~until:1. sim);
  Alcotest.(check int) "two queued (one in flight)" 2
    (Mmb.Bmmb.queue_length bmmb ~node:0);
  Alcotest.(check bool) "received known" true
    (Mmb.Bmmb.received bmmb ~node:0 ~msg:1);
  Alcotest.(check bool) "not yet received downstream" false
    (Mmb.Bmmb.received bmmb ~node:1 ~msg:2)

let test_duplicate_arrival_rejected () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:3 in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:1.
      ~policy:(Amac.Schedulers.eager ()) ~rng ()
  in
  let bmmb =
    Mmb.Bmmb.install ~mac:(Amac.Mac_handle.of_standard mac)
      ~on_deliver:(fun ~node:_ ~msg:_ ~time:_ -> ())
      ()
  in
  Mmb.Bmmb.arrive bmmb ~node:0 ~msg:7;
  Alcotest.(check bool) "second arrive of same message raises" true
    (try
       Mmb.Bmmb.arrive bmmb ~node:0 ~msg:7;
       false
     with Invalid_argument _ -> true)

(* The received sets are one bitset over (node, message id), widened when
   a larger id first arrives: here 7 and 40 each arrive past its width,
   and out of id order.  Every node must still deliver each message once,
   and the pinned completion time catches any change to the execution. *)
let test_received_bitset_widens () =
  let n = 6 in
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line n) in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:4 in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:8. ~fprog:1.
      ~policy:(Amac.Schedulers.random_compliant ()) ~rng ()
  in
  let ids = [ 7; 0; 40 ] in
  let count = Array.make_matrix n 41 0 in
  let finish = ref 0. in
  let bmmb =
    Mmb.Bmmb.install ~mac:(Amac.Mac_handle.of_standard mac)
      ~on_deliver:(fun ~node ~msg ~time ->
        count.(node).(msg) <- count.(node).(msg) + 1;
        finish := Float.max !finish time)
      ()
  in
  List.iter2
    (fun node msg ->
      Amac.Standard_mac.env_at mac ~time:0. (fun () ->
          Mmb.Bmmb.arrive bmmb ~node ~msg))
    [ 2; 5; 0 ] ids;
  ignore (Dsim.Sim.run sim);
  for node = 0 to n - 1 do
    List.iter
      (fun msg ->
        Alcotest.(check int)
          (Printf.sprintf "node %d delivers %d once" node msg)
          1 count.(node).(msg);
        Alcotest.(check bool)
          (Printf.sprintf "node %d received %d" node msg)
          true
          (Mmb.Bmmb.received bmmb ~node ~msg))
      ids;
    Alcotest.(check bool) "an id never sent, inside the width" false
      (Mmb.Bmmb.received bmmb ~node ~msg:8);
    Alcotest.(check bool) "an id past the width" false
      (Mmb.Bmmb.received bmmb ~node ~msg:41)
  done;
  Alcotest.(check (float 1e-9)) "completion time" 17.005204016919489 !finish

(* A serial run allocates almost nothing per engine event: the MAC's
   contexts, plan and instances are reused, the scheduler draws into
   the plan's unboxed cells, and each node's queue is an int ring.  The
   count starts in the runner's setup hook, once the MAC and the
   automata are built, so it covers the run and the result; what it
   finds is the buffers a run grows once and the boxed time of each
   first delivery.  The instance is serial_grid's at a quarter of the
   size. *)
let test_serial_run_allocates_little () =
  let rng = Dsim.Rng.create ~seed:5 in
  let g = Graphs.Gen.grid ~rows:16 ~cols:16 in
  let dual = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:512 in
  let before = ref nan in
  let res =
    Mmb.Runner.run_bmmb ~dual ~fack:20. ~fprog:1.
      ~policy:(Amac.Schedulers.random_compliant ())
      ~assignment:(Mmb.Problem.all_at ~node:0 ~k:8)
      ~seed:5
      ~setup:(fun _ -> before := Gc.minor_words ())
      ()
  in
  let per_event =
    (Gc.minor_words () -. !before)
    /. float_of_int res.Mmb.Runner.events_executed
  in
  Alcotest.(check bool) "complete" true res.Mmb.Runner.complete;
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per event (%d events)" per_event
       res.Mmb.Runner.events_executed)
    true (per_event <= 2.)

(* Message ids are >= 0, one rule for both engines (the partitioned
   engine's check is in test_pdes.ml). *)
let test_negative_id_rejected () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 20) in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Bmmb.arrive: message ids must be >= 0") (fun () ->
      ignore (run ~check_compliance:false dual [ (0, -1); (19, 0) ]))

let prop_bmmb_solves_and_respects_bounds =
  QCheck.Test.make
    ~name:"BMMB solves MMB within the exact paper bound (random nets/policies)"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Dsim.Rng.create ~seed in
      let n = 4 + Dsim.Rng.int rng 12 in
      let k = 1 + Dsim.Rng.int rng 4 in
      let base =
        match Dsim.Rng.int rng 3 with
        | 0 -> Graphs.Gen.line n
        | 1 -> Graphs.Gen.ring (max 3 n)
        | _ -> Graphs.Gen.gnp rng ~n ~p:0.4
      in
      let n = Graphs.Graph.n base in
      let dual =
        match Dsim.Rng.int rng 3 with
        | 0 -> Graphs.Dual.of_equal base
        | 1 -> Graphs.Dual.r_restricted_random rng ~g:base ~r:2 ~extra:6
        | _ -> Graphs.Dual.arbitrary_random rng ~g:base ~extra:6
      in
      let policy =
        match Dsim.Rng.int rng 3 with
        | 0 -> Amac.Schedulers.eager ()
        | 1 -> Amac.Schedulers.random_compliant ()
        | _ -> Amac.Schedulers.adversarial ()
      in
      let assignment = Mmb.Problem.random rng ~n ~k in
      let res =
        Mmb.Runner.run_bmmb ~dual ~fack:4. ~fprog:1. ~policy ~assignment ~seed
          ~check_compliance:true ()
      in
      res.Mmb.Runner.complete && res.Mmb.Runner.within_bound
      && res.Mmb.Runner.duplicate_deliveries = 0
      && res.Mmb.Runner.compliance_violations = []
      && res.Mmb.Runner.spec_violations = [])

let suite =
  [
    ( "mmb.bmmb",
      [
        Alcotest.test_case "single message on a line" `Quick
          test_single_message_line;
        Alcotest.test_case "k messages at a star hub" `Quick
          test_multi_message_star;
        Alcotest.test_case "disconnected components" `Quick test_disconnected;
        Alcotest.test_case "FIFO order preserved" `Quick test_fifo_order_preserved;
        Alcotest.test_case "LIFO order pinned" `Quick test_lifo_order;
        Alcotest.test_case "LIFO ablation variant" `Quick test_lifo_discipline;
        Alcotest.test_case "queue introspection" `Quick test_queue_introspection;
        Alcotest.test_case "duplicate arrival rejected" `Quick
          test_duplicate_arrival_rejected;
        Alcotest.test_case "received bitset widens" `Quick
          test_received_bitset_widens;
        Alcotest.test_case "negative message id rejected" `Quick
          test_negative_id_rejected;
        Alcotest.test_case "serial run allocates under 2 words per event"
          `Quick test_serial_run_allocates_little;
        QCheck_alcotest.to_alcotest prop_bmmb_solves_and_respects_bounds;
      ] );
  ]
