(* FMMB's guarantees are probabilistic; these tests run modest instance
   sizes across seeds and require a high success rate, plus deterministic
   checks of the mechanical pieces. *)

let grey_dual ~seed ~n =
  let rng = Dsim.Rng.create ~seed in
  Graphs.Dual.grey_zone_connected rng ~n
    ~width:(sqrt (float_of_int n /. 3.))
    ~height:(sqrt (float_of_int n /. 3.))
    ~c:2. ~p:0.4 ~max_tries:500

let test_mis_valid_on_grey_zone () =
  let failures = ref 0 in
  let trials = 10 in
  for seed = 1 to trials do
    let dual = grey_dual ~seed ~n:40 in
    let rng = Dsim.Rng.create ~seed:(seed * 77) in
    let params = Mmb.Fmmb_mis.default_params ~n:40 ~c:2. in
    let res =
      Mmb.Fmmb_mis.run ~dual ~rng
        ~policy:(Amac.Enhanced_mac.minimal_random ())
        ~params ()
    in
    let mis_list =
      List.filter (fun v -> res.Mmb.Fmmb_mis.mis.(v)) (List.init 40 Fun.id)
    in
    if
      not
        (Graphs.Mis.is_maximal_independent
           (Graphs.Dual.reliable dual)
           mis_list)
    then incr failures;
    if res.Mmb.Fmmb_mis.undecided > 0 then incr failures
  done;
  Alcotest.(check int) "all trials valid" 0 !failures

let test_mis_single_node () =
  let dual = Graphs.Dual.of_equal (Graphs.Graph.empty ~n:1) in
  let rng = Dsim.Rng.create ~seed:0 in
  let params = Mmb.Fmmb_mis.default_params ~n:1 ~c:1.5 in
  let res =
    Mmb.Fmmb_mis.run ~dual ~rng
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~params ()
  in
  Alcotest.(check bool) "lone node joins" true res.Mmb.Fmmb_mis.mis.(0)

let test_mis_two_nodes () =
  let ok = ref 0 in
  for seed = 0 to 19 do
    let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
    let rng = Dsim.Rng.create ~seed in
    let params = Mmb.Fmmb_mis.default_params ~n:2 ~c:1.5 in
    let res =
      Mmb.Fmmb_mis.run ~dual ~rng
        ~policy:(Amac.Enhanced_mac.minimal_random ())
        ~params ()
    in
    let members =
      List.filter (fun v -> res.Mmb.Fmmb_mis.mis.(v)) [ 0; 1 ]
    in
    if List.length members = 1 then incr ok
  done;
  Alcotest.(check bool) "exactly one of two adjacent nodes joins (>= 18/20)"
    true (!ok >= 18)

let test_gather_collects_everything () =
  let failures = ref 0 in
  for seed = 1 to 10 do
    let dual = grey_dual ~seed ~n:30 in
    let g = Graphs.Dual.reliable dual in
    let rng = Dsim.Rng.create ~seed:(seed * 13) in
    (* A known-valid MIS from the reference construction. *)
    let mis_list = Graphs.Mis.greedy g in
    let mis = Array.make 30 false in
    List.iter (fun v -> mis.(v) <- true) mis_list;
    let k = 5 in
    let assignment = Mmb.Problem.singleton rng ~n:30 ~k in
    let initial = Array.make 30 [] in
    List.iter
      (fun (node, m) -> initial.(node) <- m :: initial.(node))
      assignment;
    let params = Mmb.Fmmb_gather.default_params ~n:30 ~k ~c:2. in
    let res =
      Mmb.Fmmb_gather.run ~dual ~rng
        ~policy:(Amac.Enhanced_mac.minimal_random ())
        ~params ~mis ~initial
        ~on_payload:(fun ~node:_ ~payload:_ -> ())
        ()
    in
    if res.Mmb.Fmmb_gather.leftover > 0 then incr failures;
    (* Every message must now be in some MIS node's custody set. *)
    for m = 0 to k - 1 do
      let held =
        List.exists
          (fun v -> Dsim.Bitset.mem res.Mmb.Fmmb_gather.mis_sets.(v) m)
          mis_list
      in
      if not held then incr failures
    done
  done;
  Alcotest.(check int) "gather failures" 0 !failures

let test_fmmb_end_to_end () =
  let failures = ref 0 in
  for seed = 1 to 8 do
    let dual = grey_dual ~seed ~n:36 in
    let k = 4 in
    let rng = Dsim.Rng.create ~seed:(seed * 31) in
    let assignment =
      Mmb.Problem.singleton rng ~n:(Graphs.Dual.n dual) ~k
    in
    let res =
      Mmb.Runner.run_fmmb ~dual ~fprog:1. ~c:2.
        ~policy:(Amac.Enhanced_mac.minimal_random ())
        ~assignment ~seed ()
    in
    if not res.Mmb.Runner.fmmb.Mmb.Fmmb.complete then incr failures;
    if res.Mmb.Runner.duplicate_deliveries' > 0 then incr failures
  done;
  Alcotest.(check int) "end-to-end failures" 0 !failures

let test_fmmb_under_all_round_policies () =
  List.iter
    (fun policy ->
      let dual = grey_dual ~seed:5 ~n:30 in
      let rng = Dsim.Rng.create ~seed:99 in
      let assignment = Mmb.Problem.singleton rng ~n:30 ~k:3 in
      let res =
        Mmb.Runner.run_fmmb ~dual ~fprog:1. ~c:2. ~policy ~assignment ~seed:123
          ()
      in
      Alcotest.(check bool)
        ("complete under " ^ policy.Amac.Enhanced_mac.rp_name)
        true res.Mmb.Runner.fmmb.Mmb.Fmmb.complete)
    [
      Amac.Enhanced_mac.generous ();
      Amac.Enhanced_mac.minimal_random ();
      Amac.Enhanced_mac.round_adversarial ();
    ]

let test_fmmb_all_messages_at_one_node () =
  let dual = grey_dual ~seed:3 ~n:30 in
  let assignment = Mmb.Problem.all_at ~node:0 ~k:6 in
  let res =
    Mmb.Runner.run_fmmb ~dual ~fprog:1. ~c:2.
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~assignment ~seed:7 ()
  in
  Alcotest.(check bool) "complete" true res.Mmb.Runner.fmmb.Mmb.Fmmb.complete

(* A 5x5 lattice of spacing 0.7 jittered by up to 0.1 (the benchmark's
   fmmb_grey shape), with G' the grey zone out to c = 2, and [k]
   messages at distinct nodes. *)
let jittered_lattice ~seed ~k =
  let side = 5 in
  let rng = Dsim.Rng.create ~seed in
  let jitter () = Dsim.Rng.float rng 0.2 -. 0.1 in
  let points =
    Array.init (side * side) (fun i ->
        Graphs.Geometry.point
          ((0.7 *. float_of_int (i mod side)) +. jitter ())
          ((0.7 *. float_of_int (i / side)) +. jitter ()))
  in
  let dual = Graphs.Dual.of_embedding ~points ~c:2. in
  (dual, Mmb.Problem.singleton rng ~n:(side * side) ~k)

(* Each delivery is stamped with the round it happens in, so stamps never
   go backwards, and the delivery that completes the run lands in its
   last round, one Fprog before the run's time, on every backend and in
   both compositions. *)
let test_fmmb_deliveries_stamped_by_round () =
  let fprog = 2. and k = 3 in
  let check_run ~name ~tracker (r : Mmb.Fmmb.result) =
    Alcotest.(check bool) (name ^ ": complete") true r.complete;
    Alcotest.(check (option (float 0.)))
      (name ^ ": completion one Fprog before the end")
      (Some (r.time -. fprog))
      (Mmb.Problem.completion_time tracker)
  in
  for seed = 1 to 3 do
    let dual, assignment = jittered_lattice ~seed ~k in
    let n = Graphs.Dual.n dual in
    List.iter
      (fun (label, backend) ->
        let name = Printf.sprintf "%s, seed %d" label seed in
        let tracker = Mmb.Problem.tracker ~dual assignment in
        let last = ref 0. and monotone = ref true in
        let trace = Dsim.Trace.create ~enabled:false () in
        Dsim.Trace.subscribe trace (fun { Dsim.Trace.time; event } ->
            match event with
            | Dsim.Trace.Deliver _ ->
                if time < !last then monotone := false;
                last := time
            | _ -> ());
        let r =
          Mmb.Fmmb.run ~dual ~fprog ~rng:(Dsim.Rng.create ~seed)
            ~policy:(Amac.Enhanced_mac.minimal_random ())
            ~params:(Mmb.Fmmb.default_params ~n ~k ~c:2.)
            ~assignment ~tracker ~backend ~trace ()
        in
        check_run ~name ~tracker r;
        Alcotest.(check bool) (name ^ ": stamps monotone") true !monotone;
        Alcotest.(check (float 0.))
          (name ^ ": last deliver")
          (r.time -. fprog) !last)
      [
        ("rounds", Mmb.Fmmb.Rounds);
        ("generous", Mmb.Fmmb.Continuous Amac.Round_sync.Generous);
        ("minimal", Mmb.Fmmb.Continuous Amac.Round_sync.Minimal);
      ];
    let arrivals = Mmb.Problem.at_time_zero assignment in
    let tracker = Mmb.Problem.tracker_timed ~dual arrivals in
    check_run
      ~name:(Printf.sprintf "streaming, seed %d" seed)
      ~tracker
      (Mmb.Fmmb.run_streaming ~dual ~fprog ~rng:(Dsim.Rng.create ~seed)
         ~policy:(Amac.Enhanced_mac.minimal_random ())
         ~c:2. ~arrivals ~tracker ~max_rounds:200_000)
  done

let suite =
  [
    ( "mmb.fmmb",
      [
        Alcotest.test_case "MIS subroutine valid on grey zones" `Slow
          test_mis_valid_on_grey_zone;
        Alcotest.test_case "MIS: single node" `Quick test_mis_single_node;
        Alcotest.test_case "MIS: two adjacent nodes" `Quick test_mis_two_nodes;
        Alcotest.test_case "gather collects all payloads" `Slow
          test_gather_collects_everything;
        Alcotest.test_case "end-to-end over seeds" `Slow test_fmmb_end_to_end;
        Alcotest.test_case "all round policies" `Slow
          test_fmmb_under_all_round_policies;
        Alcotest.test_case "all messages at one node" `Slow
          test_fmmb_all_messages_at_one_node;
        Alcotest.test_case "deliveries stamped by round" `Quick
          test_fmmb_deliveries_stamped_by_round;
      ] );
  ]
