(* lib/dyn: epoch schedules, versioned duals, and the dynamic run path.

   The two load-bearing contracts live here: rebuild equivalence (the
   incremental Dual.with_g' refresh must be indistinguishable from a
   fresh construction, on randomized churn) and static-as-degenerate
   (a static graph expressed as a single-epoch schedule must reproduce
   the committed golden trace byte-for-byte). *)

let sorted_pool dual =
  let cmp (a1, b1) (a2, b2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2
  in
  List.sort cmp (Graphs.Dual.unreliable_only_edges dual)

let line_with_extras ~n ~extra ~seed =
  let rng = Dsim.Rng.create ~seed in
  Graphs.Dual.arbitrary_random rng ~g:(Graphs.Gen.line n) ~extra

(* --- Schedule ------------------------------------------------------------ *)

let test_epoch_of_time () =
  let base = line_with_extras ~n:8 ~extra:4 ~seed:1 in
  let s = Dyn.Schedule.static base in
  Alcotest.(check int) "static is one epoch" 0
    (Dyn.Schedule.epoch_of_time s 1e9);
  let c = Dyn.Schedule.churn ~base ~epoch_len:10. ~rate:0.5 ~seed:1 in
  List.iter
    (fun (time, e) ->
      Alcotest.(check int)
        (Printf.sprintf "epoch at t=%g" time)
        e
        (Dyn.Schedule.epoch_of_time c time))
    [ (-3., 0); (0., 0); (9.99, 0); (10., 1); (25., 2) ]

let test_flap_alternation () =
  let base = line_with_extras ~n:8 ~extra:4 ~seed:2 in
  let s = Dyn.Schedule.flap ~base ~epoch_len:1. ~period:2 in
  let pool = Array.length (Dyn.Schedule.extras_at s ~epoch:0) in
  Alcotest.(check bool) "pool nonempty" true (pool > 0);
  List.iter
    (fun (e, up) ->
      Alcotest.(check int)
        (Printf.sprintf "epoch %d" e)
        (if up then pool else 0)
        (Array.length (Dyn.Schedule.extras_at s ~epoch:e)))
    [ (0, true); (1, true); (2, false); (3, false); (4, true) ]

let test_churn_pure_and_deterministic () =
  let base = line_with_extras ~n:12 ~extra:8 ~seed:3 in
  let make () = Dyn.Schedule.churn ~base ~epoch_len:5. ~rate:0.4 ~seed:7 in
  let a = make () and b = make () in
  let epochs = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  (* Query b in reverse: the edge set at epoch e is a pure function of
     (params, e), so the query order must not matter. *)
  let via_a = List.map (fun e -> Dyn.Schedule.extras_at a ~epoch:e) epochs in
  let via_b =
    List.rev
      (List.map
         (fun e -> Dyn.Schedule.extras_at b ~epoch:e)
         (List.rev epochs))
  in
  List.iter2
    (fun ea eb ->
      Alcotest.(check bool) "order-independent" true (ea = eb);
      let pool = sorted_pool base in
      Array.iter
        (fun edge ->
          Alcotest.(check bool) "subset of pool" true (List.mem edge pool))
        ea)
    via_a via_b;
  let full = Dyn.Schedule.churn ~base ~epoch_len:5. ~rate:0. ~seed:7 in
  let none = Dyn.Schedule.churn ~base ~epoch_len:5. ~rate:1. ~seed:7 in
  Alcotest.(check int) "rate 0 keeps the pool"
    (Dyn.Schedule.pool_size full)
    (Array.length (Dyn.Schedule.extras_at full ~epoch:3));
  Alcotest.(check int) "rate 1 strips the pool" 0
    (Array.length (Dyn.Schedule.extras_at none ~epoch:3))

let test_adversary_frontier () =
  (* G = line 0-1-2-3; pool = {(0,2), (1,3)}.  A message known only at
     node 0 makes (0,2) frontier-crossing; (1,3) is not. *)
  let g = Graphs.Gen.line 4 in
  let g' = Graphs.Graph.of_edges ~n:4 (Graphs.Graph.edges g @ [ (0, 2); (1, 3) ]) in
  let base = Graphs.Dual.create ~g ~g' () in
  let blind = Dyn.Dual.of_schedule (Dyn.Schedule.adversary ~base ~epoch_len:5. ~seed:0) in
  Alcotest.(check int) "blind adversary keeps the pool" 2
    (Array.length
       (Dyn.Schedule.extras_at (Dyn.Dual.schedule blind) ~epoch:0));
  let informed =
    Dyn.Dual.of_schedule (Dyn.Schedule.adversary ~base ~epoch_len:5. ~seed:0)
  in
  Dyn.Dual.note_bcast informed ~node:0 ~msg:0;
  Alcotest.(check bool) "only the crossing edge withdrawn" true
    (Dyn.Schedule.extras_at (Dyn.Dual.schedule informed) ~epoch:1
    = [| (1, 3) |]);
  (* The epoch-1 choice was memoized at first entry: learning more does
     not retroactively change it. *)
  Dyn.Dual.note_delivery informed ~node:3 ~msg:0;
  Alcotest.(check bool) "memoized per epoch" true
    (Dyn.Schedule.extras_at (Dyn.Dual.schedule informed) ~epoch:1
    = [| (1, 3) |])

(* --- Rebuild equivalence (satellite: Graphs.Dual.with_g') ---------------- *)

let test_rebuild_equivalence () =
  let base = line_with_extras ~n:20 ~extra:15 ~seed:5 in
  let g = Graphs.Dual.reliable base in
  let sched = Dyn.Schedule.churn ~base ~epoch_len:1. ~rate:0.5 ~seed:11 in
  let incremental = ref base in
  for epoch = 0 to 40 do
    let extras = Array.to_list (Dyn.Schedule.extras_at sched ~epoch) in
    let g'new = Graphs.Graph.of_edges ~n:(Graphs.Graph.n g) (Graphs.Graph.edges g @ extras) in
    (* Dirty set: every endpoint whose G'-adjacency could have changed
       (endpoints of the symmetric difference of the extras sets). *)
    let dirty = Hashtbl.create 16 in
    let mark (u, v) =
      Hashtbl.replace dirty u ();
      Hashtbl.replace dirty v ()
    in
    let prev = sorted_pool !incremental in
    List.iter (fun e -> if not (List.mem e extras) then mark e) prev;
    List.iter (fun e -> if not (List.mem e prev) then mark e) extras;
    let dirty = Array.of_seq (Hashtbl.to_seq_keys dirty) in
    incremental := Graphs.Dual.with_g' !incremental ~g':g'new ~dirty;
    let fresh = Graphs.Dual.create ~g ~g':g'new () in
    for u = 0 to Graphs.Graph.n g - 1 do
      Alcotest.(check (array int))
        (Printf.sprintf "epoch %d node %d g'-only row" epoch u)
        (Graphs.Dual.g'_only_neighbors fresh u)
        (Graphs.Dual.g'_only_neighbors !incremental u)
    done;
    Alcotest.(check bool)
      (Printf.sprintf "epoch %d unreliable edges" epoch)
      true
      (sorted_pool fresh = sorted_pool !incremental)
  done

let test_with_g'_shares_clean_rows () =
  (* Rows of nodes outside the dirty set must be shared physically, and
     reliable_bits must be reused (is_reliable is epoch-invariant). *)
  let g = Graphs.Gen.line 6 in
  let g' = Graphs.Graph.of_edges ~n:6 (Graphs.Graph.edges g @ [ (0, 2); (3, 5) ]) in
  let base = Graphs.Dual.create ~g ~g' () in
  let g'small = Graphs.Graph.of_edges ~n:6 (Graphs.Graph.edges g @ [ (3, 5) ]) in
  let refreshed = Graphs.Dual.with_g' base ~g':g'small ~dirty:[| 0; 2 |] in
  Alcotest.(check bool) "clean row shared" true
    (Graphs.Dual.g'_only_neighbors base 3
    == Graphs.Dual.g'_only_neighbors refreshed 3);
  Alcotest.(check (array int)) "dirty row rebuilt" [||]
    (Graphs.Dual.g'_only_neighbors refreshed 0);
  Alcotest.(check bool) "reliable bits shared" true
    (base.Graphs.Dual.reliable_bits == refreshed.Graphs.Dual.reliable_bits);
  Alcotest.(check bool) "reliability epoch-invariant" true
    (Graphs.Dual.is_reliable refreshed 0 1 && not (Graphs.Dual.is_reliable refreshed 0 2))

let test_with_g'_validates () =
  let base = line_with_extras ~n:6 ~extra:3 ~seed:9 in
  let g'bad = Graphs.Gen.line 5 in
  Alcotest.check_raises "node-count mismatch"
    (Invalid_argument "Dual.with_g': node-count mismatch") (fun () ->
      ignore (Graphs.Dual.with_g' base ~g':g'bad ~dirty:[||]));
  Alcotest.check_raises "dirty out of range"
    (Invalid_argument "Dual.with_g': dirty node out of range") (fun () ->
      ignore
        (Graphs.Dual.with_g' base
           ~g':(Graphs.Dual.unreliable base)
           ~dirty:[| 6 |]))

(* --- Dyn.Dual stepping --------------------------------------------------- *)

let test_dual_refresh_path () =
  let base = line_with_extras ~n:10 ~extra:6 ~seed:13 in
  let d =
    Dyn.Dual.of_schedule (Dyn.Schedule.flap ~base ~epoch_len:1. ~period:1)
  in
  Alcotest.(check int) "starts at epoch 0" 0 (Dyn.Dual.epoch d);
  Alcotest.(check int) "epoch 0 equals the base: no refresh" 0
    (Dyn.Dual.refreshes d);
  ignore (Dyn.Dual.view d ~time:1.5);
  Alcotest.(check int) "stepped to epoch 1" 1 (Dyn.Dual.epoch d);
  Alcotest.(check int) "flap-down dirtied adjacency" 1 (Dyn.Dual.refreshes d);
  Alcotest.(check int) "extras withdrawn" 0
    (List.length (Graphs.Dual.unreliable_only_edges (Dyn.Dual.current d)));
  (* Queries inside or before the current window never move backwards. *)
  let before = Dyn.Dual.current d in
  Alcotest.(check bool) "no backwards step" true
    (Dyn.Dual.view d ~time:0.2 == before);
  Alcotest.check_raises "advance_to refuses to rewind"
    (Invalid_argument "Dyn.Dual.advance_to: epochs only advance")
    (fun () -> Dyn.Dual.advance_to d ~epoch:0);
  ignore (Dyn.Dual.view d ~time:2.5);
  Alcotest.(check int) "flap-up restores the pool" 6
    (List.length (Graphs.Dual.unreliable_only_edges (Dyn.Dual.current d)))

let test_static_is_pointer () =
  let base = line_with_extras ~n:10 ~extra:6 ~seed:17 in
  let d = Dyn.Dual.of_static base in
  Alcotest.(check bool) "static view is the base, physically" true
    (Dyn.Dual.view d ~time:123.456 == base);
  Alcotest.(check int) "no refreshes ever" 0 (Dyn.Dual.refreshes d)

(* --- Static-as-degenerate-dynamic byte identity -------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_byte_identity () =
  (* The committed golden BMMB trace, re-run with the static graph
     expressed as a single-epoch schedule: must be byte-identical. *)
  let dual = Graphs.Dual.two_line ~d:5 in
  let assignment =
    [ (Graphs.Dual.two_line_a ~d:5 1, 0); (Graphs.Dual.two_line_b ~d:5 1, 1) ]
  in
  let _, tr =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:8. ~fprog:1.
          ~policy:(Mmb.Lower_bound.two_line_policy ~d:5)
          ~assignment ~seed:0 ~check_compliance:true
          ~dyn:(Dyn.Dual.of_static dual) ~instrument ())
  in
  Alcotest.(check bool) "byte-identical to the golden trace" true
    (String.equal
       (read_file "golden/two_line_d5_seed0.jsonl")
       (Dsim.Trace_io.to_jsonl tr))

let bmmb_trace ?dyn ~seed () =
  let dual = line_with_extras ~n:14 ~extra:8 ~seed:21 in
  let rng = Dsim.Rng.create ~seed in
  let assignment = Mmb.Problem.random rng ~n:14 ~k:4 in
  let res, tr =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:20. ~fprog:1.
          ~policy:(Amac.Schedulers.adversarial ())
          ~assignment ~seed ~check_compliance:true ?dyn ~instrument ())
  in
  (Dsim.Trace_io.to_jsonl tr, res)

let test_paired_byte_identity () =
  (* Same property off the golden path, on a randomized instance. *)
  let dual = line_with_extras ~n:14 ~extra:8 ~seed:21 in
  let plain, _ = bmmb_trace ~seed:3 () in
  let wrapped, _ = bmmb_trace ~dyn:(Dyn.Dual.of_static dual) ~seed:3 () in
  Alcotest.(check bool) "static wrapper changes nothing" true
    (String.equal plain wrapped)

let test_fmmb_unperturbed () =
  (* FMMB takes no dynamic layer (scenario rejects the combination);
     its seeded path must be untouched by the dyn plumbing.  Two
     identical runs agree exactly. *)
  let rng = Dsim.Rng.create ~seed:4 in
  let dual =
    Graphs.Dual.grey_zone_connected rng ~n:24 ~width:3. ~height:3. ~c:2.
      ~p:0.4 ~max_tries:1000
  in
  let assignment =
    Mmb.Problem.singleton (Dsim.Rng.create ~seed:5) ~n:24 ~k:3
  in
  let run () =
    Mmb.Runner.run_fmmb ~dual ~fprog:1. ~c:2.
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~assignment ~seed:6 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "rounds agree" a.Mmb.Runner.fmmb.Mmb.Fmmb.total_rounds
    b.Mmb.Runner.fmmb.Mmb.Fmmb.total_rounds;
  Alcotest.(check (float 0.)) "times agree" a.Mmb.Runner.fmmb.Mmb.Fmmb.time
    b.Mmb.Runner.fmmb.Mmb.Fmmb.time

(* --- Churn runs: determinism and audit soundness ------------------------- *)

let churn_run ~seed =
  let dual = line_with_extras ~n:14 ~extra:8 ~seed:21 in
  let dyn =
    Dyn.Dual.of_schedule
      (Dyn.Schedule.churn ~base:dual ~epoch_len:8. ~rate:0.4 ~seed:33)
  in
  let rng = Dsim.Rng.create ~seed in
  let assignment = Mmb.Problem.random rng ~n:14 ~k:4 in
  let res, tr =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:20. ~fprog:1.
          ~policy:(Amac.Schedulers.adversarial ())
          ~assignment ~seed ~check_compliance:true ~dyn ~instrument ())
  in
  (Dsim.Trace_io.to_jsonl tr, res)

let test_churn_determinism () =
  let a, ra = churn_run ~seed:3 in
  let b, rb = churn_run ~seed:3 in
  Alcotest.(check bool) "identical traces" true (String.equal a b);
  Alcotest.(check bool) "complete" true ra.Mmb.Runner.complete;
  Alcotest.(check int) "same event count" ra.Mmb.Runner.events_executed
    rb.Mmb.Runner.events_executed

(* A watchdog's candidates are the open instances whose pinned G'-row
   holds the receiver.  Under churn a sender's pinned row can hold a
   receiver whose current epoch has dropped the link, so the MAC must
   look for them over the union G', not the current epoch's: the
   82 forced choices of this run, and so its trace, depend on it. *)
let test_churn_forced_candidates_pinned () =
  let trace, res = churn_run ~seed:3 in
  Alcotest.(check int) "forced deliveries" 82 res.Mmb.Runner.forced;
  Alcotest.(check string) "trace MD5" "de3c168c1354003632a88c61aeb9db78"
    (Digest.to_hex (Digest.string trace))

let test_churn_audit_sound () =
  (* Every epoch's G' is a subset of the union, so the static post-hoc
     audit against the base dual must stay clean on a churned run. *)
  let _, res = churn_run ~seed:9 in
  Alcotest.(check int) "no violations vs the union dual" 0
    (List.length res.Mmb.Runner.compliance_violations);
  Alcotest.(check int) "no MMB spec violations" 0
    (List.length res.Mmb.Runner.spec_violations)

(* --- Churn classification ------------------------------------------------ *)

let test_monitor_churned_classification () =
  (* G = line 0-1-2, union pool = {(0,2)}; rate-1 churn strips the pool,
     so epoch 0's G' is G alone.  A delivery 0→2 crosses a churned-away
     link: churned, not a violation.  A delivery 0→3-nowhere stays a
     violation. *)
  let g = Graphs.Gen.line 4 in
  let g' = Graphs.Graph.of_edges ~n:4 (Graphs.Graph.edges g @ [ (0, 2) ]) in
  let base = Graphs.Dual.create ~g ~g' () in
  let dyn =
    Dyn.Dual.of_schedule
      (Dyn.Schedule.churn ~base ~epoch_len:10. ~rate:1. ~seed:1)
  in
  let m = Amac.Compliance.create ~dual:base ~fack:10. ~fprog:5. ~dyn () in
  List.iter
    (fun (time, event) -> Amac.Compliance.on_entry m { Dsim.Trace.time; event })
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (0.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (* Crosses the churned-away (0,2): in the union, not the pinned G'. *)
      (1., Dsim.Trace.Rcv { node = 2; msg = 1; instance = 1 });
      (* Not even a union-G' edge: a genuine violation. *)
      (1.5, Dsim.Trace.Rcv { node = 3; msg = 1; instance = 1 });
      (2., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ];
  let vs = Amac.Compliance.finish ~allow_open:true m in
  Alcotest.(check int) "one churn-explained anomaly" 1
    (Amac.Compliance.churned_count m);
  Alcotest.(check bool) "the out-of-union delivery is still flagged" true
    (List.exists (fun v -> v.Amac.Compliance.rule = "receive-correctness") vs)

(* --- Scenario hardening --------------------------------------------------- *)

let expect_error ~needle json =
  match Mmb.Scenario.of_string json with
  | Ok _ -> Alcotest.failf "accepted: %s" json
  | Error e ->
      let has sub =
        let ls = String.length sub and le = String.length e in
        let rec go i = i + ls <= le && (String.sub e i ls = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e needle)
        true (has needle)

let base_json dynamic =
  Printf.sprintf
    {|{"name": "t", "protocol": "bmmb", "topology": "line", "n": 6, "dynamic": %s}|}
    dynamic

let test_scenario_rejects_unknown_dynamic_field () =
  expect_error ~needle:{|unknown field "kinds"|}
    (base_json {|{"kinds": "churn"}|});
  expect_error ~needle:"kind, epoch, period, churn, seed"
    (base_json {|{"kinds": "churn"}|})

let test_scenario_rejects_bad_kind () =
  expect_error ~needle:"static, flap, churn, adversary"
    (base_json {|{"kind": "chrn"}|})

let test_scenario_rejects_non_object () =
  expect_error ~needle:"must be an object" (base_json {|"churn"|})

let test_scenario_rejects_fmmb_dynamic () =
  expect_error ~needle:"bmmb"
    {|{"name": "t", "protocol": "fmmb", "n": 12, "dynamic": {"kind": "flap"}}|}

let test_scenario_dotted_sweep () =
  let json =
    {|{"name": "t", "protocol": "bmmb", "topology": "line", "n": 6,
       "dynamic": {"kind": "churn", "epoch": 10},
       "sweep": {"param": "dynamic.epoch", "values": [2, 4]}}|}
  in
  match Mmb.Scenario.expand_string json with
  | Error e -> Alcotest.fail e
  | Ok specs ->
      Alcotest.(check (list (float 0.)))
        "sweep overrides inside the sub-object" [ 2.; 4. ]
        (List.map
           (fun s ->
             match s.Mmb.Scenario.dynamic with
             | Some d -> d.Mmb.Scenario.dyn_epoch
             | None -> Alcotest.fail "dynamic lost in expansion")
           specs)

let test_scenario_dynamic_run () =
  (* End-to-end: a churned scenario executes, reports epochs, completes. *)
  let json =
    {|{"name": "t", "protocol": "bmmb", "topology": "line", "n": 8,
       "gprime": "arbitrary", "extra": 5, "k": 2, "check": true,
       "dynamic": {"kind": "churn", "epoch": 6, "churn": 0.5, "seed": 2}}|}
  in
  match Mmb.Scenario.of_string json with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "complete" true r.Mmb.Scenario.complete;
          Alcotest.(check int) "no violations" 0 r.Mmb.Scenario.violations;
          Alcotest.(check bool) "epochs reported" true
            (match r.Mmb.Scenario.epochs with
            | Some e -> e >= 1
            | None -> false))
        (Mmb.Scenario.execute spec)

let suite =
  [
    ( "dyn",
      [
        Alcotest.test_case "epoch_of_time windows" `Quick test_epoch_of_time;
        Alcotest.test_case "flap alternates by period" `Quick
          test_flap_alternation;
        Alcotest.test_case "churn is pure in (seed, epoch)" `Quick
          test_churn_pure_and_deterministic;
        Alcotest.test_case "adversary chases the frontier" `Quick
          test_adversary_frontier;
        Alcotest.test_case "with_g' rebuild equivalence (randomized churn)"
          `Quick test_rebuild_equivalence;
        Alcotest.test_case "with_g' shares clean rows and reliable_bits"
          `Quick test_with_g'_shares_clean_rows;
        Alcotest.test_case "with_g' validates its inputs" `Quick
          test_with_g'_validates;
        Alcotest.test_case "refresh path counts dirty steps only" `Quick
          test_dual_refresh_path;
        Alcotest.test_case "static wrapper is a pointer" `Quick
          test_static_is_pointer;
        Alcotest.test_case "single-epoch schedule reproduces the golden trace"
          `Quick test_golden_byte_identity;
        Alcotest.test_case "static wrapper is byte-identical off-golden"
          `Quick test_paired_byte_identity;
        Alcotest.test_case "FMMB path unperturbed" `Quick test_fmmb_unperturbed;
        Alcotest.test_case "churned runs are deterministic" `Quick
          test_churn_determinism;
        Alcotest.test_case "churned forced-candidate order pinned" `Quick
          test_churn_forced_candidates_pinned;
        Alcotest.test_case "static post-hoc audit stays sound under churn"
          `Quick test_churn_audit_sound;
        Alcotest.test_case "monitor classifies churned vs violated" `Quick
          test_monitor_churned_classification;
        Alcotest.test_case "scenario rejects unknown dynamic fields" `Quick
          test_scenario_rejects_unknown_dynamic_field;
        Alcotest.test_case "scenario rejects unknown dynamic kind" `Quick
          test_scenario_rejects_bad_kind;
        Alcotest.test_case "scenario rejects non-object dynamic" `Quick
          test_scenario_rejects_non_object;
        Alcotest.test_case "scenario rejects fmmb + dynamic" `Quick
          test_scenario_rejects_fmmb_dynamic;
        Alcotest.test_case "dotted sweep reaches dynamic.epoch" `Quick
          test_scenario_dotted_sweep;
        Alcotest.test_case "dynamic scenario runs end to end" `Quick
          test_scenario_dynamic_run;
      ] );
  ]
