let test_of_edges () =
  let g = Graphs.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (1, 2); (2, 1) ] in
  Alcotest.(check int) "n" 4 (Graphs.Graph.n g);
  Alcotest.(check int) "duplicate edges collapse" 2 (Graphs.Graph.m g);
  Alcotest.(check (array int)) "neighbors sorted" [| 0; 2 |]
    (Graphs.Graph.neighbors g 1);
  Alcotest.(check bool) "mem_edge symmetric" true
    (Graphs.Graph.mem_edge g 2 1 && Graphs.Graph.mem_edge g 1 2);
  Alcotest.(check bool) "non-edge" false (Graphs.Graph.mem_edge g 0 3);
  Alcotest.(check bool) "no self adjacency" false (Graphs.Graph.mem_edge g 1 1)

let test_rejects_bad_edges () =
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph.of_edges: self-loop") (fun () ->
      ignore (Graphs.Graph.of_edges ~n:2 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph: node 5 out of range [0,3)") (fun () ->
      ignore (Graphs.Graph.of_edges ~n:3 [ (0, 5) ]))

let test_edges_listing () =
  let g = Graphs.Graph.of_edges ~n:3 [ (2, 0); (1, 0) ] in
  Alcotest.(check (list (pair int int)))
    "each edge once, small endpoint first"
    [ (0, 1); (0, 2) ]
    (Graphs.Graph.edges g)

let test_union_subgraph () =
  let g = Graphs.Graph.of_edges ~n:4 [ (0, 1) ] in
  let h = Graphs.Graph.of_edges ~n:4 [ (1, 2); (0, 1) ] in
  let u = Graphs.Graph.union g h in
  Alcotest.(check int) "union edges" 2 (Graphs.Graph.m u);
  Alcotest.(check bool) "g subgraph of u" true
    (Graphs.Graph.is_subgraph ~sub:g ~super:u);
  Alcotest.(check bool) "u not subgraph of g" false
    (Graphs.Graph.is_subgraph ~sub:u ~super:g)

let test_degrees () =
  let g = Graphs.Gen.star 5 in
  Alcotest.(check int) "hub degree" 4 (Graphs.Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graphs.Graph.degree g 3);
  Alcotest.(check int) "max degree" 4 (Graphs.Graph.max_degree g)

(* Allocation pin: [mem_edge] allocates nothing.  A local recursive
   search would allocate its closure on every call. *)
let test_mem_edge_allocates_nothing () =
  let g = Graphs.Gen.grid ~rows:8 ~cols:8 in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    if Graphs.Graph.mem_edge g (i mod 64) (i * 7 mod 64) then incr hits
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "some calls find an edge" true (!hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "100,000 calls allocate %.0f words, under 512" words)
    true (words < 512.)

let prop_mem_edge_matches_neighbors =
  QCheck.Test.make ~name:"mem_edge agrees with neighbor lists" ~count:100
    QCheck.(pair (int_range 2 20) (list (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, raw) ->
      let edges =
        List.filter (fun (u, v) -> u <> v && u < n && v < n) raw
      in
      let g = Graphs.Graph.of_edges ~n edges in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let adj = Array.mem v (Graphs.Graph.neighbors g u) in
          if adj <> Graphs.Graph.mem_edge g u v then ok := false
        done
      done;
      !ok)

let suite =
  [
    ( "graphs.graph",
      [
        Alcotest.test_case "construction and adjacency" `Quick test_of_edges;
        Alcotest.test_case "rejects bad edges" `Quick test_rejects_bad_edges;
        Alcotest.test_case "edge listing" `Quick test_edges_listing;
        Alcotest.test_case "union and subgraph" `Quick test_union_subgraph;
        Alcotest.test_case "degrees" `Quick test_degrees;
        Alcotest.test_case "mem_edge allocates nothing" `Quick
          test_mem_edge_allocates_nothing;
        QCheck_alcotest.to_alcotest prop_mem_edge_matches_neighbors;
      ] );
  ]
