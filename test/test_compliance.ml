(* The checker is tested three ways: hand-crafted traces that violate each
   axiom must get exactly the expected verdict (below), mutated engine
   traces must be caught (test_compliance_mutation), and engine-produced
   traces must be clean (test_integration). *)

let line2 = lazy (Graphs.Dual.of_equal (Graphs.Gen.line 2))

let trace_of entries =
  let tr = Dsim.Trace.create () in
  List.iter (fun (time, event) -> Dsim.Trace.record tr ~time event) entries;
  tr

let audit ?(fack = 10.) ?(fprog = 2.) ?allow_open dual entries =
  Amac.Compliance.audit ~dual ~fack ~fprog ?allow_open (trace_of entries)

(* The full verdict, order-free: sorted (rule, detail) pairs. *)
let check_verdict ?fack ?fprog ?allow_open dual entries expected =
  Alcotest.(check (list (pair string string)))
    "sorted (rule, detail) verdict" expected
    (List.sort compare
       (List.map
          (fun v -> (v.Amac.Compliance.rule, v.Amac.Compliance.detail))
          (audit ?fack ?fprog ?allow_open dual entries)))

let test_clean_trace () =
  let dual = Lazy.force line2 in
  let entries =
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (1., Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (1., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
  in
  check_verdict dual entries [];
  check_verdict ~allow_open:true dual entries []

let test_rcv_to_non_neighbor () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  check_verdict dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (0.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (1., Dsim.Trace.Rcv { node = 2; msg = 1; instance = 1 });
      (1., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [
      ( "receive-correctness",
        "instance 1 delivered to 2, not a G'-neighbor of sender 0" );
    ]

let test_duplicate_rcv () =
  let dual = Lazy.force line2 in
  check_verdict dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (0.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (0.7, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (1., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [ ("receive-correctness", "instance 1 delivered twice to node 1") ]

let test_rcv_after_ack () =
  let dual = Lazy.force line2 in
  check_verdict dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (0.4, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (0.5, Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
      (0.9, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
    ]
    [
      ( "receive-correctness",
        "instance 1 delivered to 1 at 0.9 after its ack at 0.5" );
      ("receive-correctness", "instance 1 delivered twice to node 1");
    ]

let test_ack_without_g_delivery () =
  let dual = Lazy.force line2 in
  check_verdict dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (1., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [
      ( "ack-correctness",
        "instance 1 acked before delivering to G-neighbor 1" );
    ]

let test_unterminated_instance () =
  let dual = Lazy.force line2 in
  let entries = [ (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 }) ] in
  check_verdict dual entries
    [ ("termination", "instance 1 never terminated") ];
  check_verdict ~allow_open:true dual entries []

let test_late_ack () =
  let dual = Lazy.force line2 in
  check_verdict ~fack:1. dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (0.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (5., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [ ("ack-bound", "instance 1 acked 5 after bcast (Fack = 1)") ]

let test_progress_starvation () =
  (* Node 0 broadcasts for 10 units with Fprog = 2, and node 1 never
     receives anything: the progress bound is violated. *)
  let dual = Lazy.force line2 in
  check_verdict ~fack:10. ~fprog:2. dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (10., Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (10., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    [
      ( "progress-bound",
        "receiver 1 starved during [0, 8] (connected span [0, 10], Fprog = \
         2)" );
    ]

let test_progress_satisfied_by_contender () =
  (* Same 10-unit broadcast, but a second open instance (from the same
     G-neighbor here) delivers early and stays open: the paper's contend
     set covers the receiver for that instance's whole lifetime. *)
  let dual = Lazy.force line2 in
  check_verdict ~fack:10. ~fprog:2. dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (1., Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (10., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
    ]
    []

let test_progress_gap_after_cover_ends () =
  (* Instance 1 covers [_,4] by an early rcv then acks at 4; instance 2 is
     open [0, 12] but only delivers at 12 — the receiver starves on
     (4, 12]. *)
  let g = Graphs.Gen.star 3 in
  let dual = Graphs.Dual.of_equal g in
  (* nodes 1 and 2 are leaves; node 0 the hub receiver *)
  check_verdict ~fack:12. ~fprog:2. dual
    [
      (0., Dsim.Trace.Bcast { node = 1; msg = 1; instance = 1 });
      (0., Dsim.Trace.Bcast { node = 2; msg = 2; instance = 2 });
      (1., Dsim.Trace.Rcv { node = 0; msg = 1; instance = 1 });
      (4., Dsim.Trace.Ack { node = 1; msg = 1; instance = 1 });
      (12., Dsim.Trace.Rcv { node = 0; msg = 2; instance = 2 });
      (12., Dsim.Trace.Ack { node = 2; msg = 2; instance = 2 });
    ]
    [
      ( "progress-bound",
        "receiver 0 starved during [0, 10] (connected span [0, 12], Fprog = \
         2)" );
    ]

let test_enhanced_round_trace_clean () =
  (* Bcast + rcv + abort inside one Fprog round is compliant. *)
  let dual = Lazy.force line2 in
  check_verdict ~fack:10. ~fprog:2. dual
    [
      (0., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (2., Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (2., Dsim.Trace.Abort { node = 0; msg = 1; instance = 1 });
    ]
    []

(* Bcasts out of time order break the checker's precondition; the
   first one is named, and only the first. *)
let test_bcast_out_of_order () =
  let dual = Lazy.force line2 in
  check_verdict dual
    [
      (2., Dsim.Trace.Bcast { node = 0; msg = 1; instance = 1 });
      (2.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = 1 });
      (1., Dsim.Trace.Bcast { node = 1; msg = 2; instance = 2 });
      (1.5, Dsim.Trace.Rcv { node = 0; msg = 2; instance = 2 });
      (0.5, Dsim.Trace.Bcast { node = 1; msg = 3; instance = 3 });
      (1.5, Dsim.Trace.Rcv { node = 0; msg = 3; instance = 3 });
      (3., Dsim.Trace.Ack { node = 0; msg = 1; instance = 1 });
      (3., Dsim.Trace.Ack { node = 1; msg = 2; instance = 2 });
      (3., Dsim.Trace.Ack { node = 1; msg = 3; instance = 3 });
    ]
    [
      ( "trace-order",
        "bcast of instance 2 at 1 comes after a bcast at 2; later \
         progress-bound verdicts may be spurious" );
    ]

(* Verdict pin: every violation list, text and order, over a fixed
   matrix of engine traces (line, ring, grid and gnp graphs; equal,
   r-restricted and arbitrary G'; the three schedulers), each audited
   as recorded and with its Fack or Fprog tightened, after four
   mutations (dropped Rcvs, dropped Acks, late Acks, a duplicate Rcv
   appended), with [allow_open] off and on.  The digest was recorded
   from the checker that sorted every receipt of a receiver on every
   span; a rewrite of the progress-bound bookkeeping must reproduce it.
   Engine changes that alter these traces legitimately move it too. *)
let pin_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let violating = ref 0 in
  let graphs =
    [
      ("line", fun _ -> Graphs.Gen.line 6);
      ("ring", fun _ -> Graphs.Gen.ring 8);
      ("grid", fun _ -> Graphs.Gen.grid ~rows:3 ~cols:3);
      ("gnp", fun rng -> Graphs.Gen.gnp rng ~n:8 ~p:0.4);
    ]
  in
  let duals =
    [
      ("equal", fun _ g -> Graphs.Dual.of_equal g);
      ( "r-restricted",
        fun rng g -> Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:4 );
      ("arbitrary", fun rng g -> Graphs.Dual.arbitrary_random rng ~g ~extra:4);
    ]
  in
  let schedulers =
    [
      ("eager", fun () -> Amac.Schedulers.eager ());
      ("random", fun () -> Amac.Schedulers.random_compliant ());
      ("adversarial", fun () -> Amac.Schedulers.adversarial ());
    ]
  in
  let every n keep entries =
    List.filteri (fun i e -> i mod n <> 0 || not (keep e)) entries
  in
  let is_rcv e =
    match e.Dsim.Trace.event with Dsim.Trace.Rcv _ -> true | _ -> false
  in
  let is_ack e =
    match e.Dsim.Trace.event with Dsim.Trace.Ack _ -> true | _ -> false
  in
  let mutations =
    [
      ("none", Fun.id);
      ("drop-rcv", every 5 is_rcv);
      ("drop-ack", every 7 is_ack);
      ( "late-ack",
        List.mapi (fun i e ->
            if i mod 3 = 0 && is_ack e then
              { e with Dsim.Trace.time = e.Dsim.Trace.time +. 10. }
            else e) );
      ( "dup-rcv",
        fun entries ->
          match List.filter is_rcv entries with
          | [] -> entries
          | rcvs -> entries @ [ List.nth rcvs (List.length rcvs / 2) ] );
    ]
  in
  let seed = ref 0 in
  List.iter
    (fun (gname, mk_g) ->
      List.iter
        (fun (dname, mk_dual) ->
          List.iter
            (fun (sname, policy) ->
              incr seed;
              let rng = Dsim.Rng.create ~seed:!seed in
              let g = mk_g rng in
              let dual = mk_dual rng g in
              let n = Graphs.Graph.n g in
              let _, kept =
                Kept.run (fun instrument ->
                    Mmb.Runner.run_bmmb ~dual ~fack:6. ~fprog:1.
                      ~policy:(policy ())
                      ~assignment:(Mmb.Problem.random rng ~n ~k:3)
                      ~seed:!seed ~check_compliance:true ~instrument ())
              in
              let entries = Dsim.Trace.entries kept in
              List.iter
                (fun (mname, mutate) ->
                  let trace =
                    trace_of
                      (List.map
                         (fun { Dsim.Trace.time; event } -> (time, event))
                         (mutate entries))
                  in
                  List.iter
                    (fun (fack, fprog) ->
                      List.iter
                        (fun allow_open ->
                          let vs =
                            Amac.Compliance.audit ~dual ~fack ~fprog
                              ~allow_open trace
                          in
                          if vs <> [] then incr violating;
                          Printf.bprintf buf "%s/%s/%s/%s/%g/%g/%b\n" gname
                            dname sname mname fack fprog allow_open;
                          List.iter
                            (fun v ->
                              Printf.bprintf buf "%s\t%s\n"
                                v.Amac.Compliance.rule v.Amac.Compliance.detail)
                            vs)
                        [ false; true ])
                    [ (6., 1.); (3., 1.); (6., 0.25) ])
                mutations)
            schedulers)
        duals)
    graphs;
  Printf.sprintf "%s %d" (Digest.to_hex (Digest.string (Buffer.contents buf)))
    !violating

let test_pinned_verdicts () =
  Alcotest.(check string) "digest of every violation list, violating audits"
    "e32fe7eee842c2ac28b5b40a03dc2329 900" (pin_digest ())

(* Instance ids are whatever the trace says: negative, sparse or above
   2^32, and they key nothing but a table.  The list, in detection order,
   was computed by the checker that kept its instances in a [Hashtbl]. *)
let test_arbitrary_ids () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let big = 1 lsl 40 in
  let entries =
    [
      (0., Dsim.Trace.Bcast { node = 2; msg = 1; instance = big });
      (0., Dsim.Trace.Bcast { node = 1; msg = 2; instance = 9 });
      (0.5, Dsim.Trace.Rcv { node = 1; msg = 1; instance = big });
      (0.5, Dsim.Trace.Rcv { node = 0; msg = 2; instance = 9 });
      (1., Dsim.Trace.Rcv { node = 1; msg = 3; instance = 7 });
      (1., Dsim.Trace.Bcast { node = 0; msg = 3; instance = -3 });
      (1., Dsim.Trace.Bcast { node = 1; msg = 2; instance = 9 });
      (1.5, Dsim.Trace.Rcv { node = 2; msg = 2; instance = 9 });
      (2., Dsim.Trace.Ack { node = 1; msg = 2; instance = 9 });
      (2.5, Dsim.Trace.Rcv { node = 1; msg = 3; instance = -3 });
      (6., Dsim.Trace.Rcv { node = 2; msg = 2; instance = 9 });
    ]
  in
  Alcotest.(check (list (pair string string)))
    "violations in detection order; open instances by ascending uid"
    [
      ("cause-function", "rcv at node 1 from unknown instance 7");
      ("cause-function", "instance 9 broadcast twice");
      ("receive-correctness", "instance 9 delivered twice to node 2");
      ("receive-correctness", "instance 9 delivered to 2 at 6 after its ack at 2");
      ("termination", "instance -3 never terminated");
      ("termination", "instance 1099511627776 never terminated");
    ]
    (List.map
       (fun v -> (v.Amac.Compliance.rule, v.Amac.Compliance.detail))
       (audit dual entries))

(* The instance the cost pins below run: BMMB on a 16x16 grid with an
   r-restricted G' (512 extra edges) and k messages at node 0, its
   entries kept. *)
let grid_run k =
  let rng = Dsim.Rng.create ~seed:1 in
  let g = Graphs.Gen.grid ~rows:16 ~cols:16 in
  let dual = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:512 in
  let _, kept =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:20. ~fprog:1.
          ~policy:(Amac.Schedulers.random_compliant ())
          ~assignment:(Mmb.Problem.all_at ~node:0 ~k)
          ~seed:1 ~check_compliance:true ~instrument ())
  in
  (dual, kept)

(* Cost pin: the checker's minor words per trace entry stay small and do
   not grow with the message count k (re-sorting every receipt a
   receiver ever got once cost 223 words per entry at k = 4 and 753 at
   k = 16).  An entry allocates nothing but the amortized growth of the
   checker's columns and pools, so the one-time setup dominates and the
   cost per entry falls with k. *)
let test_cost_flat_in_k () =
  let words_per_entry k =
    let dual, kept = grid_run k in
    let w0 = Gc.minor_words () in
    let t = Amac.Compliance.create ~dual ~fack:20. ~fprog:1. () in
    Dsim.Trace.iter kept (Amac.Compliance.on_entry t);
    let vs = Amac.Compliance.finish t in
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) "engine trace audits clean" 0 (List.length vs);
    words /. float_of_int (Dsim.Trace.length kept)
  in
  let w4 = words_per_entry 4 and w16 = words_per_entry 16 in
  let msg = Printf.sprintf "words/entry k=4 %.2f, k=16 %.2f" w4 w16 in
  Alcotest.(check bool) (msg ^ ": at most 2") true (Float.max w4 w16 <= 2.);
  Alcotest.(check bool) (msg ^ ": no growth in k beyond 25%") true
    (w16 <= 1.25 *. w4)

(* [audit] folds the checker over the kept entries in place, so it costs
   what the checker does and little more.  When [Dsim.Trace.iter]
   copied the trace's list on every pass, it took 4.02 words per entry
   at k = 4, of which the checker took 1.02. *)
let test_audit_walks_entries_in_place () =
  let dual, kept = grid_run 4 in
  let w0 = Gc.minor_words () in
  let vs = Amac.Compliance.audit ~dual ~fack:20. ~fprog:1. kept in
  let per_entry =
    (Gc.minor_words () -. w0) /. float_of_int (Dsim.Trace.length kept)
  in
  Alcotest.(check int) "engine trace audits clean" 0 (List.length vs);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per entry, under 1.5" per_entry)
    true (per_entry < 1.5)

let suite =
  [
    ( "amac.compliance",
      [
        Alcotest.test_case "clean trace passes" `Quick test_clean_trace;
        Alcotest.test_case "rcv outside G' flagged" `Quick
          test_rcv_to_non_neighbor;
        Alcotest.test_case "duplicate rcv flagged" `Quick test_duplicate_rcv;
        Alcotest.test_case "rcv after ack flagged" `Quick test_rcv_after_ack;
        Alcotest.test_case "ack without G delivery flagged" `Quick
          test_ack_without_g_delivery;
        Alcotest.test_case "unterminated instance" `Quick
          test_unterminated_instance;
        Alcotest.test_case "late ack flagged" `Quick test_late_ack;
        Alcotest.test_case "progress starvation flagged" `Quick
          test_progress_starvation;
        Alcotest.test_case "open contender covers progress" `Quick
          test_progress_satisfied_by_contender;
        Alcotest.test_case "starvation after cover ends" `Quick
          test_progress_gap_after_cover_ends;
        Alcotest.test_case "abort-style round trace is clean" `Quick
          test_enhanced_round_trace_clean;
        Alcotest.test_case "out-of-order bcast named" `Quick
          test_bcast_out_of_order;
        Alcotest.test_case "arbitrary instance ids" `Quick test_arbitrary_ids;
        Alcotest.test_case "verdicts pinned over a trace matrix" `Quick
          test_pinned_verdicts;
        Alcotest.test_case "words per entry flat in k" `Quick
          test_cost_flat_in_k;
        Alcotest.test_case "audit walks kept entries in place" `Quick
          test_audit_walks_entries_in_place;
      ] );
  ]
