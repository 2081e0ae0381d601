(* Determinism regression: canonical runs must reproduce their committed
   traces byte-for-byte.  A diff here means a seeded code path changed
   behavior — intentional changes regenerate the golden file (see
   test/golden/README in the file header below). *)

let golden_two_line () =
  let dual = Graphs.Dual.two_line ~d:5 in
  let assignment =
    [ (Graphs.Dual.two_line_a ~d:5 1, 0); (Graphs.Dual.two_line_b ~d:5 1, 1) ]
  in
  let _, tr =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:8. ~fprog:1.
          ~policy:(Mmb.Lower_bound.two_line_policy ~d:5)
          ~assignment ~seed:0 ~check_compliance:true ~instrument ())
  in
  Dsim.Trace_io.to_jsonl tr

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_two_line_golden () =
  let expected = read_file "golden/two_line_d5_seed0.jsonl" in
  let actual = golden_two_line () in
  if String.equal expected actual then ()
  else begin
    (* Locate the first differing line for a useful failure message. *)
    let el = String.split_on_char '\n' expected in
    let al = String.split_on_char '\n' actual in
    let rec first_diff i = function
      | e :: es, a :: as_ ->
          if e <> a then Some (i, e, a) else first_diff (i + 1) (es, as_)
      | [], a :: _ -> Some (i, "<eof>", a)
      | e :: _, [] -> Some (i, e, "<eof>")
      | [], [] -> None
    in
    match first_diff 1 (el, al) with
    | Some (line, e, a) ->
        Alcotest.failf
          "golden trace diverged at line %d:\n  expected: %s\n  actual:   %s\n\
           (regenerate test/golden/two_line_d5_seed0.jsonl if intentional)"
          line e a
    | None -> Alcotest.fail "golden trace length mismatch"
  end

let test_golden_is_compliant () =
  (* The committed trace itself must satisfy the five axioms. *)
  match Dsim.Trace_io.read_file ~path:"golden/two_line_d5_seed0.jsonl" with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      let tr = Dsim.Trace.create () in
      List.iter
        (fun { Dsim.Trace.time; event } -> Dsim.Trace.record tr ~time event)
        entries;
      let dual = Graphs.Dual.two_line ~d:5 in
      Alcotest.(check int) "compliant" 0
        (List.length
           (Amac.Compliance.audit ~dual ~fack:8. ~fprog:1. tr))

(* --- Pop-order pins ---------------------------------------------------------

   Two traces whose event order the event queue decides at scale, pinned
   by MD5: any change to the order in which equal-time or cancelled
   events pop changes their bytes. *)

let md5_of_trace tr = Digest.to_hex (Digest.string (Dsim.Trace_io.to_jsonl tr))

(* FMMB on [backend] at [fprog] (default 1) on a 5x5 lattice of spacing
   0.7 jittered by up to 0.1 (the benchmark's fmmb_grey shape), with G'
   the grey zone out to c = 2: the dual, the messages, whether the run
   completed, and its trace, the run's one stream (its 4 arrivals and
   100 deliveries among the MAC entries of its three stages). *)
let fmmb_lattice ?(fprog = 1.) backend =
  let seed = 3 and side = 5 and k = 4 in
  let rng = Dsim.Rng.create ~seed in
  let n = side * side in
  let jitter () = Dsim.Rng.float rng 0.2 -. 0.1 in
  let points =
    Array.init n (fun i ->
        Graphs.Geometry.point
          ((0.7 *. float_of_int (i mod side)) +. jitter ())
          ((0.7 *. float_of_int (i / side)) +. jitter ()))
  in
  let dual = Graphs.Dual.of_embedding ~points ~c:2. in
  let assignment = Mmb.Problem.singleton rng ~n ~k in
  let tracker = Mmb.Problem.tracker ~dual assignment in
  let tr = Dsim.Trace.create () in
  let r =
    Mmb.Fmmb.run ~dual ~fprog ~rng:(Dsim.Rng.create ~seed)
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~params:(Mmb.Fmmb.default_params ~n ~k ~c:2.)
      ~assignment ~tracker ~backend ~trace:tr ()
  in
  (dual, List.map snd assignment, r.Mmb.Fmmb.complete, tr)

let fmmb_lattice_trace mode =
  let _, _, complete, tr = fmmb_lattice (Mmb.Fmmb.Continuous mode) in
  (complete, tr)

(* Generous mode: every round delivers each instance to all contenders
   at one instant (about 46,000 of its 54,000 entries share their time
   with the previous Rcv), and its acks sit 100 Fprog out until the
   round's aborts cancel them (about 10,700 cancels). *)
let test_fmmb_generous_pinned () =
  let complete, tr = fmmb_lattice_trace Amac.Round_sync.Generous in
  Alcotest.(check bool) "completes" true complete;
  Alcotest.(check int) "trace entries" 54_087 (Dsim.Trace.length tr);
  Alcotest.(check string) "trace md5" "a85900a98143a33626d73d7b5627c3f1"
    (md5_of_trace tr)

(* Minimal mode: each bcast plans its reliable deliveries and its ack at
   Fack, one delay, so they all queue in one lane until the round's
   aborts cancel them; the only receptions are the watchdogs' forced
   ones. *)
let test_fmmb_minimal_pinned () =
  let complete, tr = fmmb_lattice_trace Amac.Round_sync.Minimal in
  Alcotest.(check bool) "completes" true complete;
  Alcotest.(check int) "trace entries" 11_077 (Dsim.Trace.length tr);
  Alcotest.(check string) "trace md5" "77227abddb9461266f908c38df6d9262"
    (md5_of_trace tr)

(* One stream on every backend: its times never decrease, each
   instance opens with one [Bcast], it passes [Trace_io.check], each MAC
   entry's [msg] is a payload or -1 (a control body), and spans and
   provenance replaying it see exactly the run's messages, each
   completed and each with receipt edges. *)
let test_fmmb_one_stream () =
  List.iter
    (fun (label, fprog, backend) ->
      let dual, msgs, complete, tr = fmmb_lattice ~fprog backend in
      let n = Graphs.Dual.n dual and k = List.length msgs in
      let check_bool what = Alcotest.(check bool) (label ^ ": " ^ what) true in
      check_bool "completes" complete;
      let entries = Dsim.Trace.entries tr in
      let last = ref 0. and monotone = ref true in
      let opened = Dsim.Bitset.create ~width:0 and reopened = ref 0 in
      let foreign = ref 0 in
      List.iter
        (fun { Dsim.Trace.time; event } ->
          if time < !last then monotone := false;
          last := time;
          match event with
          | Dsim.Trace.Arrive _ | Dsim.Trace.Deliver _ -> ()
          | Dsim.Trace.Bcast { msg; instance; _ } ->
              if Dsim.Bitset.test_and_add opened instance then incr reopened;
              if msg <> -1 && not (List.mem msg msgs) then incr foreign
          | Dsim.Trace.Rcv { msg; _ }
          | Dsim.Trace.Ack { msg; _ }
          | Dsim.Trace.Abort { msg; _ } ->
              if msg <> -1 && not (List.mem msg msgs) then incr foreign)
        entries;
      check_bool "times never decrease" !monotone;
      Alcotest.(check int) (label ^ ": one Bcast per instance") 0 !reopened;
      Alcotest.(check (result unit string))
        (label ^ ": Trace_io.check") (Ok ())
        (Dsim.Trace_io.check ~n entries);
      Alcotest.(check int) (label ^ ": MAC msg is a payload or -1") 0 !foreign;
      let spans = Obs.Spans.create ~metrics:(Obs.Metrics.create ()) () in
      let prov = Obs.Provenance.create ~n () in
      Kept.replay ~dual tr (fun ledger live ->
          Dsim.Trace.subscribe live (Obs.Spans.on_entry spans ledger);
          Obs.Provenance.attach prov ledger live);
      Alcotest.(check int) (label ^ ": spans see the k messages") k
        (Obs.Spans.messages_seen spans);
      Alcotest.(check int) (label ^ ": spans complete them") k
        (Obs.Spans.messages_complete spans);
      Alcotest.(check (list int))
        (label ^ ": provenance sees the k messages")
        (List.sort Int.compare msgs)
        (Obs.Provenance.messages prov);
      List.iter
        (fun m ->
          check_bool
            (Printf.sprintf "m%d has receipts" m)
            (Obs.Provenance.receipts prov m <> []))
        msgs)
    [
      ("rounds", 1., Mmb.Fmmb.Rounds);
      ("generous", 1., Mmb.Fmmb.Continuous Amac.Round_sync.Generous);
      ("minimal", 1., Mmb.Fmmb.Continuous Amac.Round_sync.Minimal);
      (* Fprog = 0.1: a round's end, r * 0.1 + 0.1, exceeds the next
         round's start, (r + 1) * 0.1, from r = 12 on in 2131 of the
         first 10,001 rounds, so the engine stamps it as the latter. *)
      ("rounds at Fprog 0.1", 0.1, Mmb.Fmmb.Rounds);
      ( "generous at Fprog 0.1",
        0.1,
        Mmb.Fmmb.Continuous Amac.Round_sync.Generous );
    ]

(* BMMB on a 16x16 grid with an r-restricted G' (r = 2, 512 extra
   edges) and 8 messages at random nodes, under [policy]: the run, its
   trace and its engine. *)
let serial_grid_run policy =
  let seed = 3 and side = 16 in
  let rng = Dsim.Rng.create ~seed in
  let g = Graphs.Gen.grid ~rows:side ~cols:side in
  let dual =
    Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:(2 * side * side)
  in
  let assignment = Mmb.Problem.random rng ~n:(side * side) ~k:8 in
  let sim = ref None in
  let r, tr =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:8. ~fprog:1. ~policy ~assignment
          ~seed ~check_compliance:true ~instrument
          ~setup:(fun s -> sim := Some s)
          ())
  in
  (r, tr, Option.get !sim)

(* The eager scheduler: every delivery and ack lands 0.1 Fprog after its
   bcast, so the deliveries of one bcast are equal-time ties, and all
   of them share one delay. *)
let test_serial_eager_pinned () =
  let r, tr, _ = serial_grid_run (Amac.Schedulers.eager ()) in
  Alcotest.(check bool) "completes" true r.Mmb.Runner.complete;
  Alcotest.(check int) "trace entries" 22_024 (Dsim.Trace.length tr);
  Alcotest.(check string) "trace md5" "7ec376d746cdfad3e68e3df42fd6759c"
    (md5_of_trace tr)

(* The random scheduler: the queue holds up to about 1,100 live events
   at once. *)
let test_serial_random_pinned () =
  let r, tr, sim = serial_grid_run (Amac.Schedulers.random_compliant ()) in
  Alcotest.(check bool) "completes" true r.Mmb.Runner.complete;
  Alcotest.(check int) "queue high water" 1_103 (Dsim.Sim.heap_high_water sim);
  Alcotest.(check string) "trace md5" "58df86788244d991bd0e28abf81eb264"
    (md5_of_trace tr)

(* Structured bodies under the adversary, whose forced choices prefer a
   body the receiver already has, so they hinge on [fc_has_received]
   comparing bodies by structure.  On a 6x6 grid with 20 extra G' edges,
   each node sends six [(int * string)] bodies, rebuilt before every
   bcast: equal bodies come from several senders and rounds but never
   share a block.  Starts are staggered over five times. *)
let test_structured_adversary_pinned () =
  let side = 6 in
  let n = side * side in
  let rng = Dsim.Rng.create ~seed:11 in
  let dual =
    Graphs.Dual.arbitrary_random rng
      ~g:(Graphs.Gen.grid ~rows:side ~cols:side)
      ~extra:20
  in
  let sim = Dsim.Sim.create () in
  let tr = Dsim.Trace.create () in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:8. ~fprog:1.
      ~policy:(Amac.Schedulers.adversarial ())
      ~rng ~trace:tr ()
  in
  let body v round =
    (round mod 3, String.concat "" [ "m"; string_of_int (v mod 4) ])
  in
  let sent = Array.make n 0 in
  let send v =
    Amac.Standard_mac.bcast mac ~node:v (body v sent.(v));
    sent.(v) <- sent.(v) + 1
  in
  for v = 0 to n - 1 do
    Amac.Standard_mac.attach mac ~node:v
      {
        Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ());
        on_ack = (fun _ -> if sent.(v) < 6 then send v);
      };
    Amac.Standard_mac.env_at mac ~time:(float_of_int (v mod 5)) (fun () ->
        send v)
  done;
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "every bcast acked" (6 * n)
    (Amac.Standard_mac.ack_count mac);
  Alcotest.(check int) "forced deliveries" 269
    (Amac.Standard_mac.forced_count mac);
  Alcotest.(check int) "compliant" 0
    (List.length (Amac.Compliance.audit ~dual ~fack:8. ~fprog:1. tr));
  Alcotest.(check string) "trace md5" "224be099602e97bef895c48db7cb92fa"
    (md5_of_trace tr)

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "two-line adversary trace is stable" `Quick
          test_two_line_golden;
        Alcotest.test_case "committed trace is axiom-compliant" `Quick
          test_golden_is_compliant;
        Alcotest.test_case "FMMB generous trace pinned" `Quick
          test_fmmb_generous_pinned;
        Alcotest.test_case "FMMB minimal trace pinned" `Quick
          test_fmmb_minimal_pinned;
        Alcotest.test_case "FMMB records one stream on every backend" `Quick
          test_fmmb_one_stream;
        Alcotest.test_case "serial eager-scheduler trace pinned" `Quick
          test_serial_eager_pinned;
        Alcotest.test_case "serial random-scheduler trace pinned" `Quick
          test_serial_random_pinned;
        Alcotest.test_case "structured bodies under the adversary pinned"
          `Quick test_structured_adversary_pinned;
      ] );
  ]
