(* Consensus and the CDS backbone (Section 5 future work). *)

let grey ~seed ~n =
  let rng = Dsim.Rng.create ~seed in
  let side = sqrt (float_of_int n /. 3.) in
  Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side ~c:2.
    ~p:0.4 ~max_tries:1000

(* --- consensus ------------------------------------------------------------ *)

let test_consensus_basic () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.ring 10) in
  let proposals = Array.init 10 (fun v -> 100 + v) in
  let res, violations =
    Mmb.Consensus.run ~dual ~fack:10. ~fprog:1.
      ~policy:(Amac.Schedulers.adversarial ())
      ~proposals ~seed:1 ~check_compliance:true ()
  in
  Alcotest.(check bool) "agreed" true res.Mmb.Consensus.agreed;
  Alcotest.(check bool) "valid" true res.Mmb.Consensus.valid;
  Alcotest.(check (array int)) "decided the max-id node's proposal"
    (Array.make 10 109) res.Mmb.Consensus.decisions;
  Alcotest.(check int) "compliant" 0 (List.length violations)

let test_consensus_custom_ids () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 6) in
  let ids = [| 5; 60; 2; 9; 1; 30 |] in
  let proposals = [| 11; 22; 33; 44; 55; 66 |] in
  let res, _ =
    Mmb.Consensus.run ~dual ~fack:8. ~fprog:1.
      ~policy:(Amac.Schedulers.random_compliant ())
      ~proposals ~seed:2 ~ids ()
  in
  Alcotest.(check (array int)) "leader is id 60 (node 1), value 22"
    (Array.make 6 22) res.Mmb.Consensus.decisions

let test_consensus_components () =
  let g = Graphs.Graph.of_edges ~n:5 [ (0, 1); (2, 3) ] in
  let dual = Graphs.Dual.of_equal g in
  let proposals = [| 10; 11; 12; 13; 14 |] in
  let res, _ =
    Mmb.Consensus.run ~dual ~fack:5. ~fprog:1.
      ~policy:(Amac.Schedulers.eager ())
      ~proposals ~seed:3 ()
  in
  Alcotest.(check bool) "agreed per component" true res.Mmb.Consensus.agreed;
  Alcotest.(check (array int)) "component maxima decide"
    [| 11; 11; 13; 13; 14 |] res.Mmb.Consensus.decisions

let test_consensus_all_regimes () =
  let rng = Dsim.Rng.create ~seed:4 in
  let g = Graphs.Gen.grid ~rows:4 ~cols:4 in
  let dual = Graphs.Dual.arbitrary_random rng ~g ~extra:8 in
  let proposals = Array.init 16 (fun v -> v * 7) in
  List.iter
    (fun (name, make) ->
      let res, _ =
        Mmb.Consensus.run ~dual ~fack:8. ~fprog:1. ~policy:(make ())
          ~proposals ~seed:5 ()
      in
      Alcotest.(check bool) (name ^ " agrees") true res.Mmb.Consensus.agreed;
      Alcotest.(check bool) (name ^ " valid") true res.Mmb.Consensus.valid)
    [
      ("eager", fun () -> Amac.Schedulers.eager ());
      ("random", fun () -> Amac.Schedulers.random_compliant ());
      ("adversarial", fun () -> Amac.Schedulers.adversarial ());
    ]

(* Consensus floods (id, proposal) pairs, and the adversary's forced
   choices prefer a pair the receiver already has, so its completion
   time depends on [fc_has_received] matching pairs by structure. *)
let test_consensus_adversary_pinned () =
  List.iter
    (fun (side, extra, time, bcasts) ->
      let rng = Dsim.Rng.create ~seed:4 in
      let g = Graphs.Gen.grid ~rows:side ~cols:side in
      let dual = Graphs.Dual.arbitrary_random rng ~g ~extra in
      let proposals = Array.init (side * side) (fun v -> v * 7) in
      let res, _ =
        Mmb.Consensus.run ~dual ~fack:8. ~fprog:1.
          ~policy:(Amac.Schedulers.adversarial ())
          ~proposals ~seed:5 ()
      in
      let cell = Printf.sprintf "%dx%d" side side in
      Alcotest.(check bool) (cell ^ " agrees") true res.Mmb.Consensus.agreed;
      Alcotest.(check (float 1e-9)) (cell ^ " time") time
        res.Mmb.Consensus.time;
      Alcotest.(check int) (cell ^ " bcasts") bcasts res.Mmb.Consensus.bcasts)
    [ (4, 8, 32., 49); (6, 20, 73., 219); (8, 40, 48., 285) ]

(* --- CDS backbone ---------------------------------------------------------- *)

let test_cds_checker () =
  let g = Graphs.Gen.line 5 in
  Alcotest.(check bool) "middle three are a CDS" true
    (Mmb.Structuring.is_connected_dominating ~g ~member:(fun v ->
         v >= 1 && v <= 3));
  Alcotest.(check bool) "endpoints are not (not dominating middle)" false
    (Mmb.Structuring.is_connected_dominating ~g ~member:(fun v ->
         v = 0 || v = 4));
  Alcotest.(check bool) "disconnected members rejected" false
    (Mmb.Structuring.is_connected_dominating ~g ~member:(fun v ->
         v = 0 || v = 2 || v = 4));
  Alcotest.(check bool) "everything is a CDS" true
    (Mmb.Structuring.is_connected_dominating ~g ~member:(fun _ -> true))

let test_backbone_valid_on_grey_zones () =
  let failures = ref 0 in
  for seed = 1 to 6 do
    let dual = grey ~seed ~n:35 in
    let rng = Dsim.Rng.create ~seed:(seed * 3 + 1) in
    let res =
      Mmb.Structuring.run ~dual ~rng
        ~policy:(Amac.Enhanced_mac.minimal_random ())
        ~c:2. ()
    in
    if not res.Mmb.Structuring.valid then incr failures;
    (* backbone contains the MIS *)
    Array.iteri
      (fun v m ->
        if m && not res.Mmb.Structuring.backbone.(v) then incr failures)
      res.Mmb.Structuring.mis
  done;
  Alcotest.(check int) "all backbones valid CDS" 0 !failures

let test_backbone_flooding () =
  (* BMMB restricted to the backbone still solves MMB, with fewer
     broadcasts than full flooding. *)
  let dual = grey ~seed:9 ~n:40 in
  let rng = Dsim.Rng.create ~seed:10 in
  let res =
    Mmb.Structuring.run ~dual ~rng
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~c:2. ()
  in
  Alcotest.(check bool) "backbone valid" true res.Mmb.Structuring.valid;
  let backbone = res.Mmb.Structuring.backbone in
  let run ?relay () =
    let sim = Dsim.Sim.create () in
    let mac =
      Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:1.
        ~policy:(Amac.Schedulers.random_compliant ())
        ~rng:(Dsim.Rng.create ~seed:11) ()
    in
    let tracker = Mmb.Problem.tracker ~dual [ (0, 0); (20, 1); (39, 2) ] in
    let bmmb =
      Mmb.Bmmb.install ?relay ~mac:(Amac.Mac_handle.of_standard mac)
        ~on_deliver:(fun ~node ~msg ~time ->
          Mmb.Problem.on_deliver tracker ~node ~msg ~time)
        ()
    in
    List.iter
      (fun (node, msg) ->
        ignore
          (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
               Mmb.Bmmb.arrive bmmb ~node ~msg)))
      [ (0, 0); (20, 1); (39, 2) ];
    ignore (Dsim.Sim.run ~max_events:10_000_000 sim);
    (Mmb.Problem.complete tracker, Amac.Standard_mac.bcast_count mac)
  in
  let full_ok, full_bcasts = run () in
  let bb_ok, bb_bcasts = run ~relay:(fun v -> backbone.(v)) () in
  Alcotest.(check bool) "full flooding completes" true full_ok;
  Alcotest.(check bool) "backbone flooding completes" true bb_ok;
  Alcotest.(check bool)
    (Printf.sprintf "fewer broadcasts (%d < %d)" bb_bcasts full_bcasts)
    true (bb_bcasts < full_bcasts)

let suite =
  [
    ( "mmb.consensus",
      [
        Alcotest.test_case "basic agreement" `Quick test_consensus_basic;
        Alcotest.test_case "custom ids" `Quick test_consensus_custom_ids;
        Alcotest.test_case "per-component" `Quick test_consensus_components;
        Alcotest.test_case "all schedulers and regimes" `Quick
          test_consensus_all_regimes;
        Alcotest.test_case "adversary time and bcasts pinned" `Quick
          test_consensus_adversary_pinned;
      ] );
    ( "mmb.structuring",
      [
        Alcotest.test_case "CDS checker" `Quick test_cds_checker;
        Alcotest.test_case "backbone is a valid CDS (grey zones)" `Slow
          test_backbone_valid_on_grey_zones;
        Alcotest.test_case "backbone flooding saves broadcasts" `Slow
          test_backbone_flooding;
      ] );
  ]
