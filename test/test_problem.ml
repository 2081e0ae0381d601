let test_assignments () =
  let rng = Dsim.Rng.create ~seed:0 in
  let a = Mmb.Problem.singleton rng ~n:10 ~k:4 in
  Alcotest.(check int) "k messages" 4 (List.length a);
  let nodes = List.map fst a in
  Alcotest.(check int) "distinct origins" 4
    (List.length (List.sort_uniq compare nodes));
  Alcotest.check_raises "k > n rejected"
    (Invalid_argument "Problem.singleton: k > n") (fun () ->
      ignore (Mmb.Problem.singleton rng ~n:3 ~k:4));
  let b = Mmb.Problem.all_at ~node:2 ~k:3 in
  Alcotest.(check (list (pair int int)))
    "all at one node"
    [ (2, 0); (2, 1); (2, 2) ]
    b

let test_completion () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let tr = Mmb.Problem.tracker ~dual [ (0, 0) ] in
  Alcotest.(check bool) "not complete initially" false (Mmb.Problem.complete tr);
  Mmb.Problem.on_deliver tr ~node:0 ~msg:0 ~time:0.;
  Mmb.Problem.on_deliver tr ~node:1 ~msg:0 ~time:1.;
  Alcotest.(check bool) "still incomplete" false (Mmb.Problem.complete tr);
  Mmb.Problem.on_deliver tr ~node:2 ~msg:0 ~time:2.5;
  Alcotest.(check bool) "complete" true (Mmb.Problem.complete tr);
  Alcotest.(check (option (float 1e-9))) "completion time" (Some 2.5)
    (Mmb.Problem.completion_time tr);
  Alcotest.(check (option (float 1e-9))) "per-message time" (Some 2.5)
    (Mmb.Problem.message_completion_time tr ~msg:0)

let test_component_scoping () =
  (* Two components: the message only needs its own component. *)
  let g = Graphs.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let dual = Graphs.Dual.of_equal g in
  let tr = Mmb.Problem.tracker ~dual [ (0, 0) ] in
  Mmb.Problem.on_deliver tr ~node:0 ~msg:0 ~time:0.;
  Mmb.Problem.on_deliver tr ~node:1 ~msg:0 ~time:1.;
  Alcotest.(check bool) "complete within the component" true
    (Mmb.Problem.complete tr)

let test_duplicates_flagged () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let tr = Mmb.Problem.tracker ~dual [ (0, 0) ] in
  Mmb.Problem.on_deliver tr ~node:0 ~msg:0 ~time:0.;
  Mmb.Problem.on_deliver tr ~node:0 ~msg:0 ~time:1.;
  Alcotest.(check int) "duplicate counted" 1
    (Mmb.Problem.duplicate_deliveries tr);
  Mmb.Problem.on_deliver tr ~node:1 ~msg:9 ~time:1.;
  Alcotest.(check int) "unknown message is spurious" 1
    (Mmb.Problem.spurious_deliveries tr)

let test_duplicate_assignment_rejected () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  Alcotest.check_raises "duplicate msg ids"
    (Invalid_argument "Problem.tracker: duplicate message id in assignment")
    (fun () -> ignore (Mmb.Problem.tracker ~dual [ (0, 0); (1, 0) ]))

(* The ledger takes every delivery of a run: a first delivery, a repeat
   and a message it does not know allocate nothing. *)
let test_deliver_allocates_nothing () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 64) in
  let tr = Mmb.Problem.tracker ~dual [ (0, 0); (63, 1) ] in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let first =
    words (fun () ->
        for node = 0 to 63 do
          ignore (Mmb.Problem.deliver tr ~node ~msg:1 ~time:2.)
        done)
  in
  let repeat =
    words (fun () ->
        for node = 0 to 63 do
          ignore (Mmb.Problem.deliver tr ~node ~msg:1 ~time:3.)
        done)
  in
  let unknown =
    words (fun () ->
        for node = 0 to 63 do
          ignore (Mmb.Problem.deliver tr ~node ~msg:9 ~time:3.)
        done)
  in
  Alcotest.(check (list (float 0.)))
    "words: first deliveries, repeats, unknown message" [ 0.; 0.; 0. ]
    [ first; repeat; unknown ];
  Alcotest.(check (option (float 0.))) "the 64th delivery completed m1"
    (Some 2.) (Mmb.Problem.message_completion_time tr ~msg:1);
  Alcotest.(check int) "repeats are not duplicates here" 0
    (Mmb.Problem.duplicate_deliveries tr);
  Alcotest.(check int) "unknown deliveries are spurious" 64
    (Mmb.Problem.spurious_deliveries tr)

let suite =
  [
    ( "mmb.problem",
      [
        Alcotest.test_case "assignment generators" `Quick test_assignments;
        Alcotest.test_case "completion tracking" `Quick test_completion;
        Alcotest.test_case "per-component delivery obligation" `Quick
          test_component_scoping;
        Alcotest.test_case "duplicates and spurious deliveries" `Quick
          test_duplicates_flagged;
        Alcotest.test_case "duplicate assignment rejected" `Quick
          test_duplicate_assignment_rejected;
        Alcotest.test_case "deliver allocates nothing" `Quick
          test_deliver_allocates_nothing;
      ] );
  ]
