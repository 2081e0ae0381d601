(* The MMB-specification checker (Mmb.Properties) and defensive paths of
   the MAC engine. *)

let run_traced ?(policy = Amac.Schedulers.random_compliant ()) ~dual
    ~assignment ~seed () =
  snd
    (Kept.run (fun instrument ->
         Mmb.Runner.run_bmmb ~dual ~fack:8. ~fprog:1. ~policy ~assignment ~seed
           ~check_compliance:true ~instrument ()))

let test_clean_run_satisfies_spec () =
  let rng = Dsim.Rng.create ~seed:4 in
  let g = Graphs.Gen.grid ~rows:3 ~cols:4 in
  let dual = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:5 in
  let tr =
    run_traced ~dual ~assignment:[ (0, 0); (7, 1); (11, 2) ] ~seed:5 ()
  in
  Alcotest.(check (list string)) "spec satisfied" []
    (Mmb.Properties.check ~dual tr)

let rebuild entries =
  let tr = Dsim.Trace.create () in
  List.iter
    (fun { Dsim.Trace.time; event } -> Dsim.Trace.record tr ~time event)
    entries;
  tr

let test_spec_catches_missing_delivery () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 4) in
  let tr = run_traced ~dual ~assignment:[ (0, 0) ] ~seed:6 () in
  let entries = Dsim.Trace.entries tr in
  (* Drop node 3's delivery. *)
  let mutated =
    rebuild
      (List.filter
         (fun e ->
           match e.Dsim.Trace.event with
           | Dsim.Trace.Deliver { node = 3; _ } -> false
           | _ -> true)
         entries)
  in
  Alcotest.(check bool) "missing delivery flagged" true
    (List.exists
       (fun s -> String.length s > 0)
       (Mmb.Properties.check ~dual mutated));
  Alcotest.(check bool) "names condition (a)" true
    (List.exists
       (fun s ->
         let rec has i =
           i + 13 <= String.length s
           && (String.sub s i 13 = "condition (a)" || has (i + 1))
         in
         has 0)
       (Mmb.Properties.check ~dual mutated))

let test_spec_catches_duplicate_delivery () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let tr = run_traced ~dual ~assignment:[ (0, 0) ] ~seed:7 () in
  let entries = Dsim.Trace.entries tr in
  let a_deliver =
    List.find
      (fun e ->
        match e.Dsim.Trace.event with
        | Dsim.Trace.Deliver _ -> true
        | _ -> false)
      entries
  in
  let mutated = rebuild (entries @ [ a_deliver ]) in
  Alcotest.(check bool) "duplicate delivery flagged" true
    (Mmb.Properties.check ~dual mutated <> [])

let test_spec_catches_premature_delivery () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let tr = rebuild [] in
  Dsim.Trace.record tr ~time:0. (Dsim.Trace.Deliver { node = 1; msg = 0 });
  Dsim.Trace.record tr ~time:1. (Dsim.Trace.Arrive { node = 0; msg = 0 });
  Alcotest.(check bool) "delivery before arrival flagged" true
    (Mmb.Properties.check ~dual tr <> [])

(* The findings, word for word, on streams no engine makes: deliveries
   before the arrival count towards completeness once it comes, a
   second one is a duplicate, and ids are whatever the trace says. *)
let test_spec_findings_pinned () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let findings entries =
    let tr = rebuild [] in
    List.iter (fun (time, event) -> Dsim.Trace.record tr ~time event) entries;
    Mmb.Properties.check ~dual tr
  in
  let open Dsim.Trace in
  Alcotest.(check (list string))
    "deliveries before the arrival"
    [
      "node 1 delivered m0 before (or without) its arrival (condition (b))";
      "node 1 delivered m0 twice (condition (b))";
      "node 1 delivered m0 before (or without) its arrival (condition (b))";
      "node 2 never delivered m0 (condition (a))";
    ]
    (findings
       [
         (0., Deliver { node = 1; msg = 0 });
         (0.5, Deliver { node = 1; msg = 0 });
         (1., Arrive { node = 0; msg = 0 });
         (2., Deliver { node = 0; msg = 0 });
       ]);
  Alcotest.(check (list string))
    "a second arrival, a delivery without reception, sparse ids"
    [
      "message m0 arrived twice (MMB-well-formedness)";
      "node 1 delivered m0 without any prior MAC reception";
      "node 0 never delivered m-5 (condition (a))";
      "node 1 never delivered m-5 (condition (a))";
      "node 0 never delivered m1099511627776 (condition (a))";
      "node 1 never delivered m1099511627776 (condition (a))";
      "node 2 never delivered m1099511627776 (condition (a))";
    ]
    (findings
       [
         (0., Arrive { node = 0; msg = 0 });
         (0., Deliver { node = 0; msg = 0 });
         (1., Arrive { node = 1; msg = 0 });
         (2., Rcv { node = 2; msg = 0; instance = 1 });
         (3., Deliver { node = 2; msg = 0 });
         (3., Deliver { node = 1; msg = 0 });
         (4., Arrive { node = 0; msg = 1 lsl 40 });
         (4., Arrive { node = 2; msg = -5 });
         (5., Deliver { node = 2; msg = -5 });
       ])

(* --- engine defensive paths -------------------------------------------------- *)

(* A policy that writes [ack] and [deliveries], (receiver, delay) pairs,
   into its plan buffer must be rejected. *)
let bad_plan_rejected name ~ack deliveries =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let plan_of ctx =
    let p = ctx.Amac.Mac_intf.bc_plan in
    Amac.Mac_intf.set_ack p ~delay:ack;
    List.iter
      (fun (receiver, delay) -> Amac.Mac_intf.deliver p ~receiver ~delay)
      deliveries
  in
  let policy =
    {
      Amac.Mac_intf.pol_name = "bad";
      pol_plan = plan_of;
      pol_forced = (fun _ -> 0);
      pol_reads_received = false;
    }
  in
  let sim = Dsim.Sim.create () in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:1. ~policy
      ~rng:(Dsim.Rng.create ~seed:0) ()
  in
  Amac.Standard_mac.attach mac ~node:1
    { Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ()); on_ack = (fun _ -> ()) };
  Alcotest.(check bool) name true
    (try
       Amac.Standard_mac.bcast mac ~node:1 0;
       false
     with Invalid_argument _ -> true)

let test_plan_validation_paths () =
  bad_plan_rejected "duplicate receiver rejected" ~ack:1.
    [ (0, 0.5); (0, 0.7); (2, 0.5) ];
  bad_plan_rejected "non-neighbor delivery rejected" ~ack:1.
    [ (0, 0.5); (2, 0.5); (1, 0.5) ];
  bad_plan_rejected "delivery after ack rejected" ~ack:1. [ (0, 2.); (2, 0.5) ];
  bad_plan_rejected "ack beyond Fack rejected" ~ack:99. [ (0, 1.); (2, 1.) ]

let test_forced_choice_validated () =
  (* A policy returning a position past the candidates from pol_forced is
     rejected, by name. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let rogue =
    {
      Amac.Mac_intf.pol_name = "rogue";
      pol_plan =
        (fun ctx ->
          let p = ctx.Amac.Mac_intf.bc_plan in
          Amac.Mac_intf.set_ack p ~delay:ctx.Amac.Mac_intf.bc_fack;
          Amac.Mac_intf.deliver_all p ctx.Amac.Mac_intf.bc_g_neighbors
            ~delay:ctx.Amac.Mac_intf.bc_fack);
      pol_forced = (fun ctx -> ctx.Amac.Mac_intf.fc_count);
      pol_reads_received = false;
    }
  in
  let sim = Dsim.Sim.create () in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:1. ~policy:rogue
      ~rng:(Dsim.Rng.create ~seed:0) ()
  in
  for node = 0 to 1 do
    Amac.Standard_mac.attach mac ~node
      { Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ()); on_ack = (fun _ -> ()) }
  done;
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 1));
  Alcotest.check_raises "rogue forced choice refused"
    (Invalid_argument "Standard_mac: forced choice not among candidates")
    (fun () -> ignore (Dsim.Sim.run sim))

let test_double_attach_rejected () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim = Dsim.Sim.create () in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:1.
      ~policy:(Amac.Schedulers.eager ())
      ~rng:(Dsim.Rng.create ~seed:0) ()
  in
  let handlers =
    { Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ()); on_ack = (fun _ -> ()) }
  in
  Amac.Standard_mac.attach mac ~node:0 handlers;
  Alcotest.(check bool) "double attach raises" true
    (try
       Amac.Standard_mac.attach mac ~node:0 handlers;
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ( "mmb.properties",
      [
        Alcotest.test_case "clean runs satisfy the MMB spec" `Quick
          test_clean_run_satisfies_spec;
        Alcotest.test_case "missing delivery flagged" `Quick
          test_spec_catches_missing_delivery;
        Alcotest.test_case "duplicate delivery flagged" `Quick
          test_spec_catches_duplicate_delivery;
        Alcotest.test_case "premature delivery flagged" `Quick
          test_spec_catches_premature_delivery;
        Alcotest.test_case "findings pinned on edge streams" `Quick
          test_spec_findings_pinned;
      ] );
    ( "amac.defensive",
      [
        Alcotest.test_case "plan validation branches" `Quick
          test_plan_validation_paths;
        Alcotest.test_case "rogue forced choice rejected" `Quick
          test_forced_choice_validated;
        Alcotest.test_case "double attach rejected" `Quick
          test_double_attach_rejected;
      ] );
  ]
