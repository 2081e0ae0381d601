(* Mutation testing of the compliance auditor: take a real, compliant
   execution trace, corrupt it in a targeted way, and demand the auditor
   notices.  This guards against the auditor silently passing everything. *)

let fack = 6.
let fprog = 1.

(* A compliant BMMB execution with a reasonably rich trace. *)
let make_trace seed =
  let rng = Dsim.Rng.create ~seed in
  let g = Graphs.Gen.ring 8 in
  let dual = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:4 in
  let _, tr =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack ~fprog
          ~policy:(Amac.Schedulers.random_compliant ())
          ~assignment:[ (0, 0); (4, 1) ] ~seed ~check_compliance:true
          ~instrument ())
  in
  (dual, tr)

let rebuild entries =
  let tr = Dsim.Trace.create () in
  List.iter
    (fun { Dsim.Trace.time; event } -> Dsim.Trace.record tr ~time event)
    entries;
  tr

let audit dual tr = Amac.Compliance.audit ~dual ~fack ~fprog tr

let rules vs = List.sort_uniq compare (List.map (fun v -> v.Amac.Compliance.rule) vs)

let test_baseline_clean () =
  let dual, tr = make_trace 1 in
  Alcotest.(check (list string)) "clean before mutation" [] (rules (audit dual tr))

(* Drop the first rcv that an ack depends on: ack correctness must fire. *)
let test_drop_required_rcv () =
  let dual, tr = make_trace 2 in
  let entries = Dsim.Trace.entries tr in
  (* Find an acked instance and one of its rcvs. *)
  let acked =
    List.filter_map
      (fun e ->
        match e.Dsim.Trace.event with
        | Dsim.Trace.Ack { instance; _ } -> Some instance
        | _ -> None)
      entries
  in
  let victim =
    List.find_map
      (fun e ->
        match e.Dsim.Trace.event with
        | Dsim.Trace.Rcv { instance; _ } when List.mem instance acked ->
            Some e
        | _ -> None)
      entries
  in
  match victim with
  | None -> Alcotest.fail "no removable rcv found"
  | Some v ->
      let mutated = rebuild (List.filter (fun e -> e <> v) entries) in
      Alcotest.(check bool) "dropped rcv flagged" true
        (List.mem "ack-correctness" (rules (audit dual mutated)))

(* Duplicate a rcv: receive correctness must fire. *)
let test_duplicate_rcv () =
  let dual, tr = make_trace 3 in
  let entries = Dsim.Trace.entries tr in
  let rcv =
    List.find_opt
      (fun e ->
        match e.Dsim.Trace.event with Dsim.Trace.Rcv _ -> true | _ -> false)
      entries
  in
  match rcv with
  | None -> Alcotest.fail "no rcv in trace"
  | Some r ->
      let mutated = rebuild (entries @ [ r ]) in
      Alcotest.(check bool) "duplicated rcv flagged" true
        (List.mem "receive-correctness" (rules (audit dual mutated)))

(* Push an ack past the bound: ack-bound must fire. *)
let test_retime_ack () =
  let dual, tr = make_trace 4 in
  let entries = Dsim.Trace.entries tr in
  let mutated =
    rebuild
      (List.map
         (fun e ->
           match e.Dsim.Trace.event with
           | Dsim.Trace.Ack _ ->
               { e with Dsim.Trace.time = e.Dsim.Trace.time +. (3. *. fack) }
           | _ -> e)
         entries)
  in
  Alcotest.(check bool) "late acks flagged" true
    (List.mem "ack-bound" (rules (audit dual mutated)))

(* Remove every rcv at one node while its neighbors broadcast: the
   progress bound must fire (the node starves). *)
let test_starve_receiver () =
  let dual, tr = make_trace 5 in
  let entries = Dsim.Trace.entries tr in
  (* Choose the receiver with the most rcvs. *)
  let counts = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.Dsim.Trace.event with
      | Dsim.Trace.Rcv { node; _ } ->
          Hashtbl.replace counts node
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts node))
      | _ -> ())
    entries;
  let victim, _ =
    Hashtbl.fold
      (fun node c ((_, best) as acc) -> if c > best then (node, c) else acc)
      counts (-1, 0)
  in
  let mutated =
    rebuild
      (List.filter
         (fun e ->
           match e.Dsim.Trace.event with
           | Dsim.Trace.Rcv { node; _ } -> node <> victim
           | _ -> true)
         entries)
  in
  let rs = rules (audit dual mutated) in
  Alcotest.(check bool)
    ("starved receiver flagged: " ^ String.concat "," rs)
    true
    (List.mem "progress-bound" rs || List.mem "ack-correctness" rs)

(* Re-address a rcv to a node outside G': receive correctness must fire. *)
let test_readdress_rcv () =
  let dual, tr = make_trace 6 in
  let g' = Graphs.Dual.unreliable dual in
  let entries = Dsim.Trace.entries tr in
  let senders = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.Dsim.Trace.event with
      | Dsim.Trace.Bcast { node; instance; _ } ->
          Hashtbl.replace senders instance node
      | _ -> ())
    entries;
  let n = Graphs.Graph.n g' in
  let mutated_entries =
    List.map
      (fun e ->
        match e.Dsim.Trace.event with
        | Dsim.Trace.Rcv { node = _; msg; instance } -> (
            let sender = Hashtbl.find senders instance in
            (* pick some node that is NOT a G'-neighbor of the sender *)
            let far =
              List.find_opt
                (fun v ->
                  v <> sender && not (Graphs.Graph.mem_edge g' sender v))
                (List.init n Fun.id)
            in
            match far with
            | Some node ->
                { e with Dsim.Trace.event = Dsim.Trace.Rcv { node; msg; instance } }
            | None -> e)
        | _ -> e)
      entries
  in
  let mutated = rebuild mutated_entries in
  Alcotest.(check bool) "re-addressed rcv flagged" true
    (List.mem "receive-correctness" (rules (audit dual mutated)))

let prop_random_compliant_runs_audit_clean =
  QCheck.Test.make
    ~name:"every engine execution audits clean (random topologies/policies)"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Dsim.Rng.create ~seed in
      let n = 4 + Dsim.Rng.int rng 8 in
      let g = Graphs.Gen.gnp rng ~n ~p:0.4 in
      let dual = Graphs.Dual.arbitrary_random rng ~g ~extra:4 in
      let policy =
        match Dsim.Rng.int rng 3 with
        | 0 -> Amac.Schedulers.eager ()
        | 1 -> Amac.Schedulers.random_compliant ()
        | _ -> Amac.Schedulers.adversarial ()
      in
      let res =
        Mmb.Runner.run_bmmb ~dual ~fack:5. ~fprog:1. ~policy
          ~assignment:(Mmb.Problem.random rng ~n ~k:2)
          ~seed ~check_compliance:true ()
      in
      res.Mmb.Runner.compliance_violations = [])

let suite =
  [
    ( "amac.compliance-mutation",
      [
        Alcotest.test_case "baseline trace is clean" `Quick test_baseline_clean;
        Alcotest.test_case "dropping a required rcv is caught" `Quick
          test_drop_required_rcv;
        Alcotest.test_case "duplicating a rcv is caught" `Quick
          test_duplicate_rcv;
        Alcotest.test_case "retiming acks past Fack is caught" `Quick
          test_retime_ack;
        Alcotest.test_case "starving a receiver is caught" `Quick
          test_starve_receiver;
        Alcotest.test_case "re-addressing rcvs is caught" `Quick
          test_readdress_rcv;
        QCheck_alcotest.to_alcotest prop_random_compliant_runs_audit_clean;
      ] );
  ]
