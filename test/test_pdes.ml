(* lib/pdes: the horizon-parallel engine.  The contract under test is
   the P/N decoupling — the partition count P is a model parameter and
   the domain count N only maps partitions onto workers — so every
   (trace, counter) pair must be byte-identical across 1 <= N <= P, the
   P = 1 path must be the literal serial engine (golden bytes), and the
   mega struct-of-arrays path must hold per-event allocation constant. *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tmp_trace tag = Filename.temp_file ("pdes_" ^ tag) ".jsonl"

(* [run instrument] with a Dsim.Trace_io sink attached through the
   instrument, as [mmb_sim run --trace-out] attaches one: the run's
   result, the JSONL bytes the sink wrote, the sink's written count, and
   the trace it was attached to. *)
let with_sink tag run =
  let path = tmp_trace tag in
  let sink = Dsim.Trace_io.sink_create ~path in
  let attached = ref None in
  let instrument =
    {
      Mmb.Instrument.none with
      want_trace = true;
      attach =
        (fun _ tr ->
          attached := Some tr;
          Dsim.Trace.subscribe tr (Dsim.Trace_io.sink_write sink));
    }
  in
  let r = run instrument in
  Dsim.Trace_io.sink_close sink;
  let bytes = read_file path in
  Sys.remove path;
  match !attached with
  | Some tr -> (r, bytes, Dsim.Trace_io.sink_written sink, tr)
  | None -> Alcotest.fail "the run attached no trace"

(* --- Graphs.Partition ----------------------------------------------------- *)

let test_partition_covers () =
  let g = Graphs.Gen.grid ~rows:8 ~cols:8 in
  List.iter
    (fun parts ->
      let part = Graphs.Partition.blocks g ~parts in
      Alcotest.(check int)
        "one entry per node" (Graphs.Graph.n g) (Array.length part);
      Array.iter
        (fun p ->
          Alcotest.(check bool)
            "block id in range" true
            (p >= 0 && p < parts))
        part;
      let sizes = Graphs.Partition.sizes part ~parts in
      Array.iter
        (fun s -> Alcotest.(check bool) "no empty block" true (s > 0))
        sizes;
      let total = Array.fold_left ( + ) 0 sizes in
      Alcotest.(check int) "sizes sum to n" (Graphs.Graph.n g) total)
    [ 1; 2; 4; 7 ]

let test_partition_balanced_and_deterministic () =
  let g = Graphs.Gen.line 1000 in
  let part = Graphs.Partition.blocks g ~parts:4 in
  let sizes = Graphs.Partition.sizes part ~parts:4 in
  Array.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "block size %d within 2x of even split" s)
        true
        (s >= 125 && s <= 500))
    sizes;
  let again = Graphs.Partition.blocks g ~parts:4 in
  Alcotest.(check bool) "partitioner is deterministic" true (part = again);
  (* A contiguous line cut into 4 blocks severs at most a few edges. *)
  let cut = Graphs.Partition.cut_edges g ~part in
  Alcotest.(check bool)
    (Printf.sprintf "line cut is small (%d edges)" cut)
    true (cut <= 8)

(* --- P = 1 is the serial engine: golden byte-identity --------------------- *)

let test_partitions_1_matches_golden () =
  let dual = Graphs.Dual.two_line ~d:5 in
  let assignment =
    [ (Graphs.Dual.two_line_a ~d:5 1, 0); (Graphs.Dual.two_line_b ~d:5 1, 1) ]
  in
  let r, actual, _, _ =
    with_sink "golden" (fun instrument ->
        Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
          ~policy:(Mmb.Lower_bound.two_line_policy ~d:5)
          ~assignment ~seed:0 ~partitions:1 ~domains:1 ~instrument ())
  in
  Alcotest.(check bool) "serial delegate completes" true r.Mmb.Runner.pd_complete;
  Alcotest.(check string)
    "P=1 trace is the committed serial golden, byte for byte"
    (read_file "golden/two_line_d5_seed0.jsonl")
    actual

(* --- Domain mapping invariance -------------------------------------------- *)

let pdes_line ~domains ~instrument ?mk_dyn () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 60) in
  let rng = Dsim.Rng.create ~seed:3 in
  let assignment = Mmb.Problem.random rng ~n:60 ~k:3 in
  Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
    ~policy:(Amac.Schedulers.random_compliant ())
    ~assignment ~seed:3 ~partitions:4 ~domains ?mk_dyn ~instrument ()

let check_domain_invariance ~tag ~run =
  let traced domains =
    let r, bytes, _, _ =
      with_sink (Printf.sprintf "%s_d%d" tag domains) (fun instrument ->
          run ~domains ~instrument)
    in
    (r, bytes)
  in
  let (r1 : Mmb.Runner.pdes_result), t1 = traced 1 in
  let (r2 : Mmb.Runner.pdes_result), t2 = traced 2 in
  let (r4 : Mmb.Runner.pdes_result), t4 = traced 4 in
  Alcotest.(check bool) "completes" true r1.Mmb.Runner.pd_complete;
  Alcotest.(check string) "trace bytes: domains 1 = 2" t1 t2;
  Alcotest.(check string) "trace bytes: domains 1 = 4" t1 t4;
  List.iter
    (fun (name, f) ->
      Alcotest.(check int) name (f r1) (f r2);
      Alcotest.(check int) name (f r1) (f r4))
    [
      ("bcasts", fun (r : Mmb.Runner.pdes_result) -> r.Mmb.Runner.pd_bcasts);
      ("rcvs", fun r -> r.Mmb.Runner.pd_rcvs);
      ("acks", fun r -> r.Mmb.Runner.pd_acks);
      ("deliveries", fun r -> r.Mmb.Runner.pd_deliveries);
      ("remote", fun r -> r.Mmb.Runner.pd_remote);
      ("events", fun r -> r.Mmb.Runner.pd_events);
      ("windows", fun r -> r.Mmb.Runner.pd_windows);
    ];
  Alcotest.(check (float 0.)) "completion time" r1.Mmb.Runner.pd_time
    r2.Mmb.Runner.pd_time

let test_domains_invariant_static () =
  check_domain_invariance ~tag:"static" ~run:(fun ~domains ~instrument ->
      pdes_line ~domains ~instrument ())

let test_domains_invariant_churn () =
  (* One private dynamic wrapper per partition: the churn schedule is a
     pure function of (seed, epoch), so per-partition copies stay in
     lockstep and the merged trace must again be mapping-invariant. *)
  let mk_dyn () =
    let g = Graphs.Gen.line 60 in
    let rng = Dsim.Rng.create ~seed:77 in
    let dual = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:20 in
    Dyn.Dual.of_schedule
      (Dyn.Schedule.churn ~base:dual ~epoch_len:5. ~rate:0.3 ~seed:7)
  in
  let dual =
    let g = Graphs.Gen.line 60 in
    let rng = Dsim.Rng.create ~seed:77 in
    Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:20
  in
  let rng = Dsim.Rng.create ~seed:3 in
  let assignment = Mmb.Problem.random rng ~n:60 ~k:3 in
  check_domain_invariance ~tag:"churn" ~run:(fun ~domains ~instrument ->
      Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
        ~policy:(Amac.Schedulers.random_compliant ())
        ~assignment ~seed:3 ~partitions:4 ~domains ~mk_dyn ~instrument ())

(* The merged trace of a P >= 2 run, pinned by digest at two domain
   counts, so a change to the partitioned execution itself (not only to
   its mapping onto domains) fails here.  The run is
   [mmb_sim run -t line -n 200 -k 3 --fack 8 --seed 3 --partitions 4
   --trace-out FILE]. *)
let test_merged_trace_pinned () =
  List.iter
    (fun domains ->
      let spec =
        match
          Mmb.Scenario.of_string
            (Printf.sprintf
               {|{"topology": "line", "n": 200, "k": 3, "fack": 8, "seed": 3,
                  "partitions": 4, "domains": %d}|}
               domains)
        with
        | Ok spec -> spec
        | Error e -> Alcotest.fail e
      in
      let _, bytes, _, _ =
        with_sink "pinned" (fun instrument ->
            Mmb.Scenario.run
              ~instrument:(fun _ _ -> instrument)
              spec ~seed:spec.Mmb.Scenario.seed)
      in
      let digest = Digest.to_hex (Digest.string bytes) in
      Alcotest.(check string)
        (Printf.sprintf "merged trace md5 at %d domain(s)" domains)
        "691604882ca943a07854915a8cf4ab50" digest)
    [ 1; 2 ]

(* --- Merged traces satisfy the MAC axioms --------------------------------- *)

let test_merged_trace_compliant () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 30) in
  let rng = Dsim.Rng.create ~seed:9 in
  let assignment = Mmb.Problem.random rng ~n:30 ~k:2 in
  let r, bytes, written, attached =
    with_sink "audit" (fun instrument ->
        Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
          ~policy:(Amac.Schedulers.random_compliant ())
          ~assignment ~seed:9 ~partitions:3 ~domains:2 ~instrument ())
  in
  Alcotest.(check bool) "completes" true r.Mmb.Runner.pd_complete;
  let entries =
    match Dsim.Trace_io.of_jsonl bytes with
    | Ok es -> es
    | Error e -> Alcotest.fail ("merged trace unreadable: " ^ e)
  in
  Alcotest.(check int)
    "the sink wrote every entry the trace recorded"
    (Dsim.Trace.recorded attached) written;
  Alcotest.(check int) "one line per written entry" written
    (List.length entries);
  let tr = Dsim.Trace.create ~enabled:true () in
  List.iter
    (fun (e : Dsim.Trace.entry) -> Dsim.Trace.record tr ~time:e.time e.event)
    entries;
  match Amac.Compliance.audit ~dual ~fack:8. ~fprog:1. tr with
  | [] -> ()
  | vs ->
      Alcotest.failf "merged trace violates %d axiom(s): %s" (List.length vs)
        (String.concat "; "
           (List.map (fun v -> v.Amac.Compliance.rule) vs))

(* The runner audits a partitioned run as it audits a serial one: with
   [check_compliance] the merged trace is checked against the five
   axioms and the MMB specification as it is recorded.  An r-restricted
   grid gives G' edges G lacks, so receive correctness is exercised. *)
let test_checked_partitioned_run () =
  let dual =
    let rng = Dsim.Rng.create ~seed:21 in
    Graphs.Dual.r_restricted_random rng ~g:(Graphs.Gen.grid ~rows:12 ~cols:12)
      ~r:2 ~extra:120
  in
  let rng = Dsim.Rng.create ~seed:4 in
  let assignment = Mmb.Problem.random rng ~n:144 ~k:4 in
  List.iter
    (fun partitions ->
      let tag = Printf.sprintf "P=%d" partitions in
      let r, kept =
        Kept.run (fun instrument ->
            Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
              ~policy:(Amac.Schedulers.random_compliant ())
              ~assignment ~seed:4 ~partitions ~domains:2
              ~check_compliance:true ~instrument ())
      in
      Alcotest.(check bool) (tag ^ " completes") true r.Mmb.Runner.pd_complete;
      let rcvs = ref 0 in
      Dsim.Trace.iter kept (function
        | { Dsim.Trace.event = Dsim.Trace.Rcv _; _ } -> incr rcvs
        | _ -> ());
      Alcotest.(check int)
        (tag ^ " the merged trace holds every rcv")
        r.Mmb.Runner.pd_rcvs !rcvs;
      Alcotest.(check (list string))
        (tag ^ " no compliance violations") []
        (List.map
           (fun v -> v.Amac.Compliance.rule)
           r.Mmb.Runner.pd_compliance_violations);
      Alcotest.(check (list string))
        (tag ^ " no MMB-spec violations") [] r.Mmb.Runner.pd_spec_violations)
    [ 2; 5 ]

(* --- Error surface --------------------------------------------------------- *)

let test_domains_exceed_partitions () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 10) in
  let check_raises ~partitions ~domains =
    match
      Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
        ~policy:(Amac.Schedulers.random_compliant ())
        ~assignment:[ (0, 0) ] ~seed:1 ~partitions ~domains ()
    with
    | exception Pdes.Engine.Domains_exceed_partitions
        { domains = got_domains; partitions = got_partitions } ->
        Alcotest.(check (pair int int))
          "payload names both counts" (domains, partitions)
          (got_domains, got_partitions)
    | _ -> Alcotest.fail "expected Domains_exceed_partitions"
  in
  check_raises ~partitions:2 ~domains:3;
  (* The serial delegate enforces the same contract. *)
  check_raises ~partitions:1 ~domains:2

let test_fprog_above_fack_rejected () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 10) in
  Alcotest.check_raises "Fprog > Fack is invalid"
    (Invalid_argument
       "run_bmmb_pdes: Fprog must not exceed Fack (ack bound)") (fun () ->
      ignore
        (Mmb.Runner.run_bmmb_pdes ~dual ~fack:1. ~fprog:2.
           ~policy:(Amac.Schedulers.random_compliant ())
           ~assignment:[ (0, 0) ] ~seed:1 ~partitions:2 ~domains:1 ()))

(* Message ids are >= 0 on both engines.  A negative id would index
   before the start of Mega's received bitset, so the engine rejects it
   by name up front. *)
let test_negative_id_rejected () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 20) in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Pdes.Engine.run: message ids must be >= 0") (fun () ->
      ignore
        (Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
           ~policy:(Amac.Schedulers.random_compliant ())
           ~assignment:[ (0, -1); (19, 0) ] ~seed:1 ~partitions:2 ~domains:1
           ()))

(* A repeated id is the serial tracker's error on every P, raised before
   anything is built. *)
let test_duplicate_id_rejected () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 20) in
  List.iter
    (fun partitions ->
      Alcotest.check_raises
        (Printf.sprintf "duplicate id at P=%d" partitions)
        (Invalid_argument
           "Problem.tracker: duplicate message id in assignment") (fun () ->
          ignore
            (Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
               ~policy:(Amac.Schedulers.random_compliant ())
               ~assignment:[ (0, 0); (0, 0) ] ~seed:1 ~partitions ~domains:1
               ())))
    [ 1; 2 ]

(* Ids need not be dense: completion counts one delivery per node per
   distinct id, not per slot up to the largest id. *)
let test_sparse_id_completes () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 20) in
  List.iter
    (fun partitions ->
      let r =
        Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
          ~policy:(Amac.Schedulers.random_compliant ())
          ~assignment:[ (0, 5) ] ~seed:1 ~partitions ~domains:1 ()
      in
      let tag = Printf.sprintf "P=%d" partitions in
      Alcotest.(check bool) (tag ^ " completes") true r.Mmb.Runner.pd_complete;
      Alcotest.(check int) (tag ^ " one delivery per node") 20
        r.Mmb.Runner.pd_deliveries;
      Alcotest.(check bool) (tag ^ " finite time") true
        (Float.is_finite r.Mmb.Runner.pd_time))
    [ 1; 2 ]

(* Completion is judged as the serial tracker judges it on every P: a
   message must reach the nodes of its origin's G-component.  On two
   10-node lines with one message at node 0, only the first line can
   (and must) deliver it, and every engine reports the 10 pairs it
   delivered. *)
let test_disconnected_g_completes () =
  let edges =
    List.init 9 (fun i -> (i, i + 1)) @ List.init 9 (fun i -> (10 + i, 11 + i))
  in
  let dual = Graphs.Dual.of_equal (Graphs.Graph.of_edges ~n:20 edges) in
  List.iter
    (fun partitions ->
      let r =
        Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
          ~policy:(Amac.Schedulers.random_compliant ())
          ~assignment:[ (0, 0) ] ~seed:5 ~partitions ~domains:1 ()
      in
      let tag = Printf.sprintf "P=%d" partitions in
      Alcotest.(check bool) (tag ^ " completes") true r.Mmb.Runner.pd_complete;
      Alcotest.(check bool) (tag ^ " within the bound") true
        r.Mmb.Runner.pd_within_bound;
      Alcotest.(check int) (tag ^ " delivers to the first line") 10
        r.Mmb.Runner.pd_deliveries;
      if partitions = 1 then
        Alcotest.(check (float 1e-4)) "serial completion time" 7.85419
          r.Mmb.Runner.pd_time)
    [ 1; 2; 4 ]

(* --- Scenario plumbing ----------------------------------------------------- *)

let scenario_json ~extra_fields =
  Printf.sprintf
    {|{"name": "t", "protocol": "bmmb", "topology": "line", "n": 24,
       "k": 2, "fack": 8, "fprog": 1, "seed": 3%s}|}
    extra_fields

let test_scenario_fields_parse () =
  match Mmb.Scenario.of_string
          (scenario_json ~extra_fields:{|, "domains": 2, "partitions": 4|})
  with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      Alcotest.(check int) "domains" 2 spec.Mmb.Scenario.domains;
      Alcotest.(check int) "partitions" 4 spec.Mmb.Scenario.partitions;
      (* Auto partitions resolve from the requested domain count. *)
      (match Mmb.Scenario.of_string
               (scenario_json ~extra_fields:{|, "domains": 3|})
       with
      | Error e -> Alcotest.fail e
      | Ok s -> Alcotest.(check int) "partitions auto = domains" 3
                  s.Mmb.Scenario.partitions);
      (* The resolved spec bakes both fields (campaign content address). *)
      let baked = Dsim.Json.to_string (Mmb.Scenario.spec_to_json spec) in
      Alcotest.(check bool) "domains baked" true
        (Analysis.Paths.find_substring ~sub:{|"domains":2|} baked <> None);
      Alcotest.(check bool) "partitions baked" true
        (Analysis.Paths.find_substring ~sub:{|"partitions":4|} baked <> None)

let expect_scenario_error ~needle json =
  match Mmb.Scenario.of_string json with
  | Ok _ -> Alcotest.failf "expected rejection mentioning %S" needle
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e needle)
        true
        (Analysis.Paths.find_substring ~sub:needle e <> None)

let test_scenario_rejections () =
  expect_scenario_error ~needle:"domains-exceed-partitions"
    (scenario_json ~extra_fields:{|, "domains": 4, "partitions": 2|});
  expect_scenario_error ~needle:"scheduler"
    (scenario_json
       ~extra_fields:
         {|, "partitions": 2, "scheduler": "eager"|});
  expect_scenario_error ~needle:"arrivals"
    (scenario_json
       ~extra_fields:{|, "partitions": 2, "arrivals": "poisson", "rate": 1|});
  expect_scenario_error ~needle:"adversary"
    (scenario_json
       ~extra_fields:
         {|, "partitions": 2,
            "dynamic": {"kind": "adversary", "epoch": 5}|})

let test_scenario_domains_sweepable () =
  let json =
    scenario_json
      ~extra_fields:
        {|, "partitions": 4, "sweep": {"param": "domains", "values": [1, 2, 4]}|}
  in
  match Mmb.Scenario.expand_string json with
  | Error e -> Alcotest.fail e
  | Ok specs ->
      Alcotest.(check (list int))
        "one spec per swept domain count" [ 1; 2; 4 ]
        (List.map (fun s -> s.Mmb.Scenario.domains) specs);
      (* Swept specs execute through the partitioned engine and agree:
         same model parameter P, so identical results per seed. *)
      let results =
        List.map
          (fun s ->
            match Mmb.Scenario.execute s with
            | [ r ] -> (r.Mmb.Scenario.complete, r.Mmb.Scenario.time)
            | _ -> Alcotest.fail "expected a single run")
          specs
      in
      match results with
      | (c, t) :: rest ->
          Alcotest.(check bool) "complete" true c;
          List.iter
            (fun (c', t') ->
              Alcotest.(check bool) "complete" true c';
              Alcotest.(check (float 0.)) "same completion time" t t')
            rest
      | [] -> Alcotest.fail "no results"

(* --- Mega path allocation discipline --------------------------------------- *)

(* The struct-of-arrays engine must allocate O(1) minor words per event
   at steady state — no per-delivery Hashtbl or list growth.  Comparing
   per-event allocation at two sizes catches any O(n)-per-event
   regression without pinning a fragile constant.  Deliveries and acks
   are int-coded posts of handlers each partition registers once, with
   no per-event closure, so a run also stays under an absolute ceiling
   of a few words per event in all, the bound's and the engine's setup
   included; two closures per bcast would break it. *)
let test_mega_allocation_per_event () =
  let run n =
    let dual = Graphs.Dual.of_equal (Graphs.Gen.line n) in
    let rng = Dsim.Rng.create ~seed:5 in
    let assignment = Mmb.Problem.random rng ~n ~k:2 in
    let before = Gc.minor_words () in
    let r =
      Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1.
        ~policy:(Amac.Schedulers.random_compliant ())
        ~assignment ~seed:5 ~partitions:2 ~domains:1 ()
    in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "completes" true r.Mmb.Runner.pd_complete;
    words /. float_of_int r.Mmb.Runner.pd_events
  in
  let small = run 2_000 in
  let large = run 8_000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "per-event allocation is size-independent (%.1f vs %.1f words)" small
       large)
    true
    (large <= (2. *. small) +. 64.);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per event at most 8" large)
    true (large <= 8.)

(* A barrier window pays only for the partitions with an event due in
   it.  On a line most windows hold a few events in one or two
   partitions, so any per-window cost linear in P would show up as words
   per event growing with P. *)
let test_window_allocation_flat_in_partitions () =
  let n = 4_000 in
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line n) in
  let policy = Amac.Schedulers.random_compliant () in
  let words_per_event partitions =
    let before = Gc.minor_words () in
    let r =
      Mmb.Runner.run_bmmb_pdes ~dual ~fack:8. ~fprog:1. ~policy
        ~assignment:[ (0, 0); (n - 1, 1) ] ~seed:5 ~partitions ~domains:1 ()
    in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "completes" true r.Mmb.Runner.pd_complete;
    words /. float_of_int r.Mmb.Runner.pd_events
  in
  let p2 = words_per_event 2 in
  let p16 = words_per_event 16 in
  Alcotest.(check bool)
    (Printf.sprintf
       "words per event at P=16 within 25%% of P=2 (%.1f vs %.1f)" p16 p2)
    true
    (p16 <= 1.25 *. p2)

(* --- Exec.Pool.resolve_jobs ------------------------------------------------ *)

let test_resolve_jobs () =
  let avail = Exec.Pool.available_parallelism () in
  Alcotest.(check int) "0 means auto" avail (Exec.Pool.resolve_jobs ~requested:0);
  Alcotest.(check int) "negative means auto" avail
    (Exec.Pool.resolve_jobs ~requested:(-3));
  Alcotest.(check int) "1 stays 1" 1 (Exec.Pool.resolve_jobs ~requested:1);
  Alcotest.(check int) "clamped to the machine" avail
    (Exec.Pool.resolve_jobs ~requested:(avail + 512))

let suite =
  [
    ( "pdes",
      [
        Alcotest.test_case "partition blocks cover every node" `Quick
          test_partition_covers;
        Alcotest.test_case "partitioner balanced and deterministic" `Quick
          test_partition_balanced_and_deterministic;
        Alcotest.test_case "P=1 reproduces the serial golden trace" `Quick
          test_partitions_1_matches_golden;
        Alcotest.test_case "trace bytes invariant across domains (static)"
          `Quick test_domains_invariant_static;
        Alcotest.test_case "trace bytes invariant across domains (churn)"
          `Quick test_domains_invariant_churn;
        Alcotest.test_case "P=4 merged trace pinned at 1 and 2 domains" `Quick
          test_merged_trace_pinned;
        Alcotest.test_case "merged trace passes the compliance audit" `Quick
          test_merged_trace_compliant;
        Alcotest.test_case "checked partitioned run audits its merged trace"
          `Quick test_checked_partitioned_run;
        Alcotest.test_case "domains > partitions raises" `Quick
          test_domains_exceed_partitions;
        Alcotest.test_case "negative message id rejected" `Quick
          test_negative_id_rejected;
        Alcotest.test_case "duplicate message id rejected" `Quick
          test_duplicate_id_rejected;
        Alcotest.test_case "disconnected G completes on every P" `Quick
          test_disconnected_g_completes;
        Alcotest.test_case "sparse message id completes" `Quick
          test_sparse_id_completes;
        Alcotest.test_case "Fprog > Fack rejected" `Quick
          test_fprog_above_fack_rejected;
        Alcotest.test_case "scenario parses domains/partitions" `Quick
          test_scenario_fields_parse;
        Alcotest.test_case "scenario rejects invalid combinations" `Quick
          test_scenario_rejections;
        Alcotest.test_case "scenario sweeps domains" `Quick
          test_scenario_domains_sweepable;
        Alcotest.test_case "mega path allocates O(1) words per event" `Quick
          test_mega_allocation_per_event;
        Alcotest.test_case "window allocation flat in partition count" `Quick
          test_window_allocation_flat_in_partitions;
        Alcotest.test_case "Pool.resolve_jobs CLI convention" `Quick
          test_resolve_jobs;
      ] );
  ]
