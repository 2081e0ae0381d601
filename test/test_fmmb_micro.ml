(* Fine-grained, deterministic round-level tests of the FMMB subroutines:
   generous round policy and activation probability 1 remove all
   randomness, so the exact probe/data/ack and spread/relay sequencing of
   Sections 4.3-4.4 can be pinned down on tiny graphs. *)

let deterministic_gather_params =
  { Mmb.Fmmb_gather.periods = 4; p_active = 1.; use_acks = true }

let test_gather_one_period_sequence () =
  (* Star: hub is the MIS node, leaf 1 holds payload 7.  With p_active = 1
     and the generous policy, one period suffices:
       round 0: hub probes; round 1: leaf offers; round 2: hub acks. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.star 3) in
  let mis = [| true; false; false |] in
  let initial = [| []; [ 7 ]; [] |] in
  let rng = Dsim.Rng.create ~seed:0 in
  let res =
    Mmb.Fmmb_gather.run ~dual ~rng
      ~policy:(Amac.Enhanced_mac.generous ())
      ~params:deterministic_gather_params ~mis ~initial
      ~on_payload:(fun ~node:_ ~payload:_ -> ())
      ()
  in
  (* The leaf retires the payload when it processes the ack — at the start
     of the NEXT period's first round — so quiescence is observed after two
     periods (6 rounds), one of them idle. *)
  Alcotest.(check int) "drained after one active period" 6
    res.Mmb.Fmmb_gather.rounds_run;
  Alcotest.(check bool) "hub owns the payload" true
    (Dsim.Bitset.mem res.Mmb.Fmmb_gather.mis_sets.(0) 7);
  Alcotest.(check int) "nothing left at leaves" 0
    res.Mmb.Fmmb_gather.leftover;
  Alcotest.(check int) "exactly one data broadcast" 1
    res.Mmb.Fmmb_gather.data_broadcasts

let test_gather_multiple_payloads_sequential () =
  (* One leaf with three payloads: drained in three periods (one offer and
     one ack per period), smallest payload first. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.star 2) in
  let mis = [| true; false |] in
  let initial = [| []; [ 5; 3; 9 ] |] in
  let rng = Dsim.Rng.create ~seed:0 in
  let order = ref [] in
  let res =
    Mmb.Fmmb_gather.run ~dual ~rng
      ~policy:(Amac.Enhanced_mac.generous ())
      ~params:deterministic_gather_params ~mis ~initial
      ~on_payload:(fun ~node ~payload ->
        if node = 0 && not (List.mem payload !order) then
          order := payload :: !order)
      ()
  in
  (* Three active periods plus the observation period (see above). *)
  Alcotest.(check int) "three active periods" 12 res.Mmb.Fmmb_gather.rounds_run;
  Alcotest.(check (list int)) "smallest-first order" [ 3; 5; 9 ]
    (List.rev !order);
  Alcotest.(check int) "three data broadcasts" 3
    res.Mmb.Fmmb_gather.data_broadcasts

let test_gather_needs_g_neighbor_probe () =
  (* The offering rule requires the probe to come from a reliable
     neighbor: a leaf connected to the MIS node only via G' never offers. *)
  let g = Graphs.Graph.of_edges ~n:3 [ (0, 2) ] in
  let g' = Graphs.Graph.of_edges ~n:3 [ (0, 2); (0, 1) ] in
  let dual = Graphs.Dual.create ~g ~g' () in
  let mis = [| true; false; false |] in
  let initial = [| []; [ 4 ]; [] |] in
  let rng = Dsim.Rng.create ~seed:0 in
  let res =
    Mmb.Fmmb_gather.run ~dual ~rng
      ~policy:(Amac.Enhanced_mac.generous ())
      ~params:deterministic_gather_params ~mis ~initial
      ~on_payload:(fun ~node:_ ~payload:_ -> ())
      ()
  in
  Alcotest.(check int) "G'-only leaf never offers" 0
    res.Mmb.Fmmb_gather.data_broadcasts;
  Alcotest.(check int) "its payload stays stranded" 1
    res.Mmb.Fmmb_gather.leftover

let deterministic_spread_params =
  { Mmb.Fmmb_spread.periods_per_phase = 2; p_active = 1.; relays = true }

let test_spread_three_hop_relay () =
  (* Line of 4: MIS node 0 holds the payload; node 3 is 3 hops away.
     Within one period the relays push it: round 0 broadcast (reaches 1),
     round 1 relay (reaches 2), round 2 relay (reaches 3). *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 4) in
  let mis = [| true; false; false; false |] in
  let sets = Array.init 4 (fun _ -> Dsim.Bitset.create ~width:0) in
  Dsim.Bitset.add sets.(0) 42;
  let rng = Dsim.Rng.create ~seed:0 in
  let got_at = Array.make 4 max_int in
  got_at.(0) <- 0;
  let mac_rounds = ref 0 in
  let res =
    Mmb.Fmmb_spread.run ~dual ~rng
      ~policy:(Amac.Enhanced_mac.generous ())
      ~params:deterministic_spread_params ~mis ~sets
      ~on_payload:(fun ~node ~payload:_ ->
        if got_at.(node) = max_int then got_at.(node) <- !mac_rounds)
      ~stop:(fun () ->
        incr mac_rounds;
        Array.for_all (fun t -> t < max_int) got_at)
      ~max_phases:4 ()
  in
  ignore res;
  Alcotest.(check bool) "node 1 first, then 2, then 3" true
    (got_at.(1) <= got_at.(2) && got_at.(2) <= got_at.(3));
  Alcotest.(check bool) "three hops within one period window" true
    (got_at.(3) < max_int && got_at.(3) <= 4)

let test_spread_without_relays_stops_at_one_hop () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 4) in
  let mis = [| true; false; false; false |] in
  let sets = Array.init 4 (fun _ -> Dsim.Bitset.create ~width:0) in
  Dsim.Bitset.add sets.(0) 42;
  let rng = Dsim.Rng.create ~seed:0 in
  let reached = Array.make 4 false in
  reached.(0) <- true;
  let _ =
    Mmb.Fmmb_spread.run ~dual ~rng
      ~policy:(Amac.Enhanced_mac.generous ())
      ~params:{ deterministic_spread_params with Mmb.Fmmb_spread.relays = false }
      ~mis ~sets
      ~on_payload:(fun ~node ~payload:_ -> reached.(node) <- true)
      ~stop:(fun () -> false)
      ~max_phases:2 ()
  in
  Alcotest.(check (array bool)) "only the direct neighbor hears it"
    [| true; true; false; false |] reached

let test_mis_deterministic_single_active () =
  (* Two isolated nodes: both always join (no contention, no neighbors). *)
  let dual = Graphs.Dual.of_equal (Graphs.Graph.empty ~n:2) in
  let rng = Dsim.Rng.create ~seed:1 in
  let params = Mmb.Fmmb_mis.default_params ~n:2 ~c:1.5 in
  let res =
    Mmb.Fmmb_mis.run ~dual ~rng
      ~policy:(Amac.Enhanced_mac.generous ())
      ~params ()
  in
  Alcotest.(check (array bool)) "both isolated nodes join" [| true; true |]
    res.Mmb.Fmmb_mis.mis

let suite =
  [
    ( "mmb.fmmb-micro",
      [
        Alcotest.test_case "gather: one-period probe/data/ack" `Quick
          test_gather_one_period_sequence;
        Alcotest.test_case "gather: sequential payloads, smallest first"
          `Quick test_gather_multiple_payloads_sequential;
        Alcotest.test_case "gather: probes must be reliable" `Quick
          test_gather_needs_g_neighbor_probe;
        Alcotest.test_case "spread: 3-hop relay chain" `Quick
          test_spread_three_hop_relay;
        Alcotest.test_case "spread: no relays, one hop" `Quick
          test_spread_without_relays_stops_at_one_hop;
        Alcotest.test_case "mis: isolated nodes join" `Quick
          test_mis_deterministic_single_active;
      ] );
  ]
