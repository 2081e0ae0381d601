let test_create_validates () =
  let g = Graphs.Gen.line 4 in
  let g' = Graphs.Graph.of_edges ~n:4 [ (0, 2) ] in
  Alcotest.check_raises "G must be inside G'"
    (Invalid_argument "Dual.create: G is not a subgraph of G'") (fun () ->
      ignore (Graphs.Dual.create ~g ~g' ()))

let test_of_equal () =
  let g = Graphs.Gen.ring 5 in
  let d = Graphs.Dual.of_equal g in
  Alcotest.(check bool) "G' = G" true (Graphs.Dual.equal_graphs d);
  Alcotest.(check int) "restriction radius 1" 1
    (Graphs.Dual.restriction_radius d);
  Alcotest.(check (list (pair int int))) "no unreliable-only edges" []
    (Graphs.Dual.unreliable_only_edges d)

let test_power () =
  let g = Graphs.Gen.line 5 in
  let g2 = Graphs.Dual.power g ~r:2 in
  Alcotest.(check bool) "0-2 within 2 hops" true (Graphs.Graph.mem_edge g2 0 2);
  Alcotest.(check bool) "0-3 not within 2 hops" false
    (Graphs.Graph.mem_edge g2 0 3);
  Alcotest.(check int) "edge count of line^2" 7 (Graphs.Graph.m g2);
  let g4 = Graphs.Dual.power g ~r:4 in
  Alcotest.(check int) "line^4 is complete" 10 (Graphs.Graph.m g4)

let test_r_restricted () =
  let g = Graphs.Gen.line 6 in
  let g' = Graphs.Graph.of_edges ~n:6 (Graphs.Graph.edges g @ [ (0, 3) ]) in
  let d = Graphs.Dual.create ~g ~g' () in
  Alcotest.(check int) "restriction radius" 3
    (Graphs.Dual.restriction_radius d);
  Alcotest.(check bool) "3-restricted" true (Graphs.Dual.is_r_restricted d ~r:3);
  Alcotest.(check bool) "not 2-restricted" false
    (Graphs.Dual.is_r_restricted d ~r:2)

let test_r_restricted_random () =
  let rng = Dsim.Rng.create ~seed:0 in
  let g = Graphs.Gen.grid ~rows:5 ~cols:5 in
  let d = Graphs.Dual.r_restricted_random rng ~g ~r:3 ~extra:30 in
  Alcotest.(check bool) "3-restricted by construction" true
    (Graphs.Dual.is_r_restricted d ~r:3);
  Alcotest.(check bool) "has unreliable edges" true
    (Graphs.Dual.unreliable_only_edges d <> [])

let test_arbitrary_random () =
  let rng = Dsim.Rng.create ~seed:0 in
  let g = Graphs.Gen.line 10 in
  let d = Graphs.Dual.arbitrary_random rng ~g ~extra:5 in
  Alcotest.(check int) "exactly extra edges added" 5
    (List.length (Graphs.Dual.unreliable_only_edges d))

let test_grey_zone () =
  let rng = Dsim.Rng.create ~seed:2 in
  let d =
    Graphs.Dual.grey_zone_random rng ~n:40 ~width:4. ~height:4. ~c:2. ~p:0.5
  in
  Alcotest.(check bool) "satisfies grey-zone conditions" true
    (Graphs.Dual.is_grey_zone d ~c:2.);
  Alcotest.(check bool) "not grey-zone for c=1 unless no extras" true
    (Graphs.Dual.unreliable_only_edges d = []
    || not (Graphs.Dual.is_grey_zone d ~c:1.))

let test_two_line () =
  let d = 5 in
  let dual = Graphs.Dual.two_line ~d in
  let g = Graphs.Dual.reliable dual in
  Alcotest.(check int) "nodes" 10 (Graphs.Graph.n g);
  Alcotest.(check int) "reliable edges: two lines" 8 (Graphs.Graph.m g);
  Alcotest.(check int) "components" 2 (Graphs.Bfs.component_count g);
  Alcotest.(check int) "cross edges" 8
    (List.length (Graphs.Dual.unreliable_only_edges dual));
  let a = Graphs.Dual.two_line_a ~d and b = Graphs.Dual.two_line_b ~d in
  Alcotest.(check bool) "a_i - a_{i+1} reliable" true
    (Graphs.Graph.mem_edge g (a 1) (a 2));
  let g' = Graphs.Dual.unreliable dual in
  Alcotest.(check bool) "a_1 - b_2 unreliable" true
    (Graphs.Graph.mem_edge g' (a 1) (b 2));
  Alcotest.(check bool) "b_1 - a_2 unreliable" true
    (Graphs.Graph.mem_edge g' (b 1) (a 2));
  Alcotest.(check bool) "a_1 - b_1 not connected" false
    (Graphs.Graph.mem_edge g' (a 1) (b 1));
  (* The paper's grey-zone realizability remark, witnessed. *)
  Alcotest.(check bool) "C is grey-zone restricted for c = 1.5" true
    (Graphs.Dual.is_grey_zone dual ~c:1.5);
  Alcotest.(check bool) "but not for c = 1.2" false
    (Graphs.Dual.is_grey_zone dual ~c:1.2)

let test_choke () =
  let k = 6 in
  let dual = Graphs.Dual.choke ~k in
  let g = Graphs.Dual.reliable dual in
  Alcotest.(check int) "nodes" (k + 1) (Graphs.Graph.n g);
  Alcotest.(check bool) "G' = G" true (Graphs.Dual.equal_graphs dual);
  let hub = Graphs.Dual.choke_hub ~k and sink = Graphs.Dual.choke_sink ~k in
  Alcotest.(check int) "hub degree" k (Graphs.Graph.degree g hub);
  Alcotest.(check int) "sink degree" 1 (Graphs.Graph.degree g sink);
  Alcotest.(check bool) "hub-sink bridge" true (Graphs.Graph.mem_edge g hub sink)

let prop_power_contains_g =
  QCheck.Test.make ~name:"G is a subgraph of G^r" ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 1 4))
    (fun (seed, r) ->
      let rng = Dsim.Rng.create ~seed in
      let n = 3 + Dsim.Rng.int rng 12 in
      let g = Graphs.Gen.gnp rng ~n ~p:0.3 in
      Graphs.Graph.is_subgraph ~sub:g ~super:(Graphs.Dual.power g ~r))

let prop_r_restricted_definition =
  QCheck.Test.make ~name:"r-restricted iff subgraph of G^r" ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 1 3))
    (fun (seed, r) ->
      let rng = Dsim.Rng.create ~seed in
      let n = 4 + Dsim.Rng.int rng 10 in
      let g = Graphs.Gen.line n in
      let d = Graphs.Dual.r_restricted_random rng ~g ~r ~extra:10 in
      let by_definition = Graphs.Dual.is_r_restricted d ~r in
      let by_power =
        Graphs.Graph.is_subgraph
          ~sub:(Graphs.Dual.unreliable d)
          ~super:(Graphs.Dual.power g ~r)
      in
      by_definition && by_power)

(* The bounded, shared-buffer searches behind [restriction_radius] agree
   with the definition, across components too ([max_int]). *)
let prop_restriction_radius_least =
  QCheck.Test.make ~name:"restriction radius is the least r that holds"
    ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Dsim.Rng.create ~seed in
      let n = 3 + Dsim.Rng.int rng 12 in
      let g = Graphs.Gen.gnp rng ~n ~p:0.25 in
      let d = Graphs.Dual.arbitrary_random rng ~g ~extra:(Dsim.Rng.int rng 6) in
      let r = Graphs.Dual.restriction_radius d in
      if r = max_int then not (Graphs.Dual.is_r_restricted d ~r:n)
      else
        Graphs.Dual.is_r_restricted d ~r
        && (r = 1 || not (Graphs.Dual.is_r_restricted d ~r:(r - 1))))

let suite =
  [
    ( "graphs.dual",
      [
        Alcotest.test_case "create validates containment" `Quick
          test_create_validates;
        Alcotest.test_case "G' = G construction" `Quick test_of_equal;
        Alcotest.test_case "power graph" `Quick test_power;
        Alcotest.test_case "r-restriction radius" `Quick test_r_restricted;
        Alcotest.test_case "random r-restricted generator" `Quick
          test_r_restricted_random;
        Alcotest.test_case "random arbitrary generator" `Quick
          test_arbitrary_random;
        Alcotest.test_case "grey-zone generator" `Quick test_grey_zone;
        Alcotest.test_case "Figure-2 two-line network" `Quick test_two_line;
        Alcotest.test_case "Lemma-3.18 choke network" `Quick test_choke;
        QCheck_alcotest.to_alcotest prop_power_contains_g;
        QCheck_alcotest.to_alcotest prop_r_restricted_definition;
        QCheck_alcotest.to_alcotest prop_restriction_radius_least;
      ] );
  ]
