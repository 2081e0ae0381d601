(* Direct engine tests, using inert node automata that only record what
   happened to them. *)

type log_entry = { at : float; what : [ `Rcv of int | `Ack of int ] }

let make_env ?(policy = Amac.Schedulers.eager ()) ~dual ~fack ~fprog () =
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:0 in
  let trace = Dsim.Trace.create () in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack ~fprog ~policy ~rng ~trace ()
  in
  let n = Graphs.Dual.n dual in
  let logs = Array.make n [] in
  for node = 0 to n - 1 do
    Amac.Standard_mac.attach mac ~node
      {
        Amac.Mac_intf.on_rcv =
          (fun ~src:_ m ->
            logs.(node) <-
              { at = Dsim.Sim.now sim; what = `Rcv m } :: logs.(node));
        on_ack =
          (fun m ->
            logs.(node) <-
              { at = Dsim.Sim.now sim; what = `Ack m } :: logs.(node));
      }
  done;
  (sim, mac, logs, trace)

let test_basic_delivery () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 3) in
  let sim, mac, logs, _ = make_env ~dual ~fack:10. ~fprog:1. () in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:1 42));
  ignore (Dsim.Sim.run sim);
  let rcvs node =
    List.filter_map
      (fun e -> match e.what with `Rcv m -> Some m | `Ack _ -> None)
      logs.(node)
  in
  Alcotest.(check (list int)) "node 0 received" [ 42 ] (rcvs 0);
  Alcotest.(check (list int)) "node 2 received" [ 42 ] (rcvs 2);
  Alcotest.(check (list int)) "sender did not receive" [] (rcvs 1);
  Alcotest.(check bool) "sender acked" true
    (List.exists (fun e -> e.what = `Ack 42) logs.(1));
  Alcotest.(check int) "stats: one bcast" 1 (Amac.Standard_mac.bcast_count mac);
  Alcotest.(check int) "stats: two rcvs" 2 (Amac.Standard_mac.rcv_count mac);
  Alcotest.(check int) "stats: one ack" 1 (Amac.Standard_mac.ack_count mac)

let test_well_formedness () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim, mac, _, _ =
    make_env ~dual ~fack:10. ~fprog:1.
      ~policy:(Amac.Schedulers.adversarial ()) ()
  in
  let raised = ref false in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 1;
         try Amac.Standard_mac.bcast mac ~node:0 2
         with Amac.Standard_mac.Not_well_formed _ -> raised := true));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check bool) "second bcast before ack rejected" true !raised

let test_ack_within_fack () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.star 6) in
  let fack = 7. in
  let sim, mac, logs, _ =
    make_env ~dual ~fack ~fprog:1. ~policy:(Amac.Schedulers.adversarial ()) ()
  in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 9));
  ignore (Dsim.Sim.run sim);
  (match List.find_opt (fun e -> e.what = `Ack 9) logs.(0) with
  | Some e ->
      Alcotest.(check bool) "ack within Fack" true (e.at <= fack +. 1e-9)
  | None -> Alcotest.fail "no ack");
  (* The adversarial plan stalls deliveries to Fack, but the per-leaf
     progress watchdog forces them at Fprog; either way they must land by
     the ack. *)
  List.iter
    (fun leaf ->
      match List.find_opt (fun e -> e.what = `Rcv 9) logs.(leaf) with
      | Some e ->
          Alcotest.(check bool) "delivery in [Fprog, Fack]" true
            (e.at >= 1. -. 1e-9 && e.at <= fack +. 1e-9)
      | None -> Alcotest.fail "leaf missed the message")
    [ 1; 2; 3; 4; 5 ]

let test_progress_watchdog_forces_delivery () =
  (* Adversarial policy delays deliveries to Fack, but the progress bound
     forces the receiver to get something within Fprog. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let fack = 100. and fprog = 3. in
  let sim, mac, logs, _ =
    make_env ~dual ~fack ~fprog ~policy:(Amac.Schedulers.adversarial ()) ()
  in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 5));
  ignore (Dsim.Sim.run sim);
  (match List.rev logs.(1) with
  | { at; what = `Rcv 5 } :: _ ->
      Alcotest.(check (float 1e-9)) "forced at Fprog" fprog at
  | _ -> Alcotest.fail "receiver never got the message");
  Alcotest.(check int) "one forced delivery" 1
    (Amac.Standard_mac.forced_count mac)

(* The MAC keeps the history [fc_has_received] reads only for a policy
   that declares it reads it.  The adversary's forced choice with the
   declaration taken away must fail by name when the watchdog fires,
   not be told [false]. *)
let test_undeclared_history_read_refused () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let policy =
    {
      (Amac.Schedulers.adversarial ()) with
      Amac.Mac_intf.pol_reads_received = false;
    }
  in
  let sim, mac, _, _ = make_env ~dual ~fack:100. ~fprog:3. ~policy () in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 5));
  Alcotest.check_raises "the forced choice's history read"
    (Invalid_argument
       "Standard_mac: fc_has_received called by a policy that does not set \
        pol_reads_received") (fun () -> ignore (Dsim.Sim.run sim))

let test_no_duplicate_instance_delivery () =
  (* The forced delivery must replace, not duplicate, the planned one. *)
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim, mac, logs, _ =
    make_env ~dual ~fack:50. ~fprog:5.
      ~policy:(Amac.Schedulers.adversarial ()) ()
  in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 5));
  ignore (Dsim.Sim.run sim);
  let rcvs =
    List.filter (fun e -> match e.what with `Rcv _ -> true | _ -> false)
      logs.(1)
  in
  Alcotest.(check int) "exactly one rcv" 1 (List.length rcvs)

(* The message of the [Invalid_argument] the MAC raises when node 0 and
   then node 1 of a 2-node line broadcast at time 0 under [policy], or
   [None] if it raises none. *)
let rejection policy =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim, mac, _, _ = make_env ~dual ~fack:10. ~fprog:1. ~policy () in
  let raised = ref None in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         try
           Amac.Standard_mac.bcast mac ~node:0 1;
           Amac.Standard_mac.bcast mac ~node:1 2
         with Invalid_argument msg -> raised := Some msg));
  ignore (Dsim.Sim.run sim);
  !raised

(* A policy whose [pol_plan] is [plan]. *)
let plan_policy plan =
  {
    Amac.Mac_intf.pol_name = "test";
    pol_plan = plan;
    pol_forced = (fun _ -> 0);
    pol_reads_received = false;
  }

(* A policy that writes [every] on each call and [first] on its first
   call only.  The MAC resets the buffer before each call, so the second
   bcast's plan lacks the [first] part, as a fresh buffer would. *)
let first_call_only ~every ~first =
  let calls = ref 0 in
  plan_policy (fun ctx ->
      incr calls;
      every ctx;
      if !calls = 1 then first ctx)

let set_ack ctx =
  Amac.Mac_intf.set_ack ctx.Amac.Mac_intf.bc_plan
    ~delay:ctx.Amac.Mac_intf.bc_fack

let deliver_g ctx =
  Amac.Mac_intf.deliver_all ctx.Amac.Mac_intf.bc_plan
    ctx.Amac.Mac_intf.bc_g_neighbors ~delay:ctx.Amac.Mac_intf.bc_fack

let test_invalid_plan_rejected () =
  Alcotest.(check bool) "plan missing a G-neighbor rejected" true
    (Option.is_some (rejection (plan_policy set_ack)));
  Alcotest.(check (option string))
    "an ack set only on the first call is unset on the second"
    (Some "Standard_mac: plan ack_delay nan outside [0, 10]")
    (rejection (first_call_only ~every:deliver_g ~first:set_ack));
  Alcotest.(check (option string))
    "deliveries written only on the first call are gone on the second"
    (Some "Standard_mac: plan misses a G-neighbor")
    (rejection (first_call_only ~every:set_ack ~first:deliver_g))

let test_unreliable_delivery_possible () =
  (* Eager policy delivers over G'-only edges too. *)
  let g = Graphs.Gen.line 3 in
  let g' = Graphs.Graph.of_edges ~n:3 (Graphs.Graph.edges g @ [ (0, 2) ]) in
  let dual = Graphs.Dual.create ~g ~g' () in
  let sim, mac, logs, _ = make_env ~dual ~fack:10. ~fprog:1. () in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 3));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check bool) "G'-only neighbor reached" true
    (List.exists (fun e -> e.what = `Rcv 3) logs.(2))

let test_trace_events_recorded () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim, mac, _, trace = make_env ~dual ~fack:10. ~fprog:1. () in
  ignore
    (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
         Amac.Standard_mac.bcast mac ~node:0 1));
  ignore (Dsim.Sim.run sim);
  let kinds =
    List.map
      (fun e ->
        match e.Dsim.Trace.event with
        | Dsim.Trace.Bcast _ -> "bcast"
        | Dsim.Trace.Rcv _ -> "rcv"
        | Dsim.Trace.Ack _ -> "ack"
        | _ -> "other")
      (Dsim.Trace.entries trace)
  in
  Alcotest.(check (list string)) "bcast, rcv, ack" [ "bcast"; "rcv"; "ack" ]
    kinds

(* An aborted instance keeps its events, and so its id, for the
   eps_abort window.  The hub of a 3-node star sends A at 0 (leaf 1 at
   0.6, leaf 2 at 0.9), aborts it at 0.5 with eps_abort = 0.2 and sends
   B at once: A's delivery at 0.6 must still land with A's uid and
   body, its 0.9 one must not, and B is untouched.  After B's ack the
   hub sends C, which may reuse A's id now that its window is over. *)
let test_abort_window_keeps_instance () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.star 3) in
  let policy =
    plan_policy (fun ctx ->
        let p = ctx.Amac.Mac_intf.bc_plan in
        Amac.Mac_intf.set_ack p ~delay:2.;
        Amac.Mac_intf.deliver p ~receiver:1 ~delay:0.6;
        Amac.Mac_intf.deliver p ~receiver:2 ~delay:0.9)
  in
  let sim = Dsim.Sim.create () in
  let trace = Dsim.Trace.create () in
  let fack = 2. and fprog = 1. and eps_abort = 0.2 in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack ~fprog ~policy
      ~rng:(Dsim.Rng.create ~seed:0) ~eps_abort ~trace ()
  in
  let got = ref [] in
  for node = 0 to 2 do
    Amac.Standard_mac.attach mac ~node
      {
        Amac.Mac_intf.on_rcv =
          (fun ~src:_ body -> got := (Dsim.Sim.now sim, node, body) :: !got);
        on_ack =
          (fun body ->
            if String.equal body "B" then Amac.Standard_mac.bcast mac ~node "C");
      }
  done;
  Amac.Standard_mac.env_at mac ~time:0. (fun () ->
      Amac.Standard_mac.bcast mac ~node:0 "A");
  Amac.Standard_mac.env_at mac ~time:0.5 (fun () ->
      Amac.Standard_mac.abort mac ~node:0;
      Amac.Standard_mac.bcast mac ~node:0 "B");
  ignore (Dsim.Sim.run sim);
  Alcotest.(check (list (triple (float 1e-9) int string)))
    "receptions"
    [
      (0.6, 1, "A");
      (1.1, 1, "B");
      (1.4, 2, "B");
      (3.1, 1, "C");
      (3.4, 2, "C");
    ]
    (List.rev !got);
  let rcv_instances =
    List.filter_map
      (fun e ->
        match e.Dsim.Trace.event with
        | Dsim.Trace.Rcv { node; instance; _ } -> Some (node, instance)
        | _ -> None)
      (Dsim.Trace.entries trace)
  in
  Alcotest.(check (list (pair int int)))
    "each reception names its own instance"
    [ (1, 0); (1, 1); (2, 1); (1, 2); (2, 2) ]
    rcv_instances;
  Alcotest.(check int) "compliant" 0
    (List.length (Amac.Compliance.audit ~dual ~fack ~fprog ~eps_abort trace))

(* Words the MAC allocates per bcast on a star whose hub rebroadcasts
   one prebuilt body on every ack, under a policy that writes the same
   plan every time: every leaf receives at [delay] and the ack comes at
   the same time.  With [delay] below Fprog each leaf's watchdog is
   armed and cancelled once per bcast; past it each fires and forces a
   delivery, chosen by the adversary's forced choice, which asks
   [fc_has_received], when [reads_received], and else by position 0.
   The second of two equal rounds is measured, so the engine's and the
   MAC's arrays have grown. *)
let star_words_per_bcast ~reads_received ~leaves ~delay =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.star (leaves + 1)) in
  let hub = 0 in
  let rows = Graphs.Graph.neighbors (Graphs.Dual.unreliable dual) hub in
  let policy =
    {
      (plan_policy (fun ctx ->
           let p = ctx.Amac.Mac_intf.bc_plan in
           Amac.Mac_intf.set_ack p ~delay;
           Amac.Mac_intf.deliver_all p rows ~delay))
      with
      Amac.Mac_intf.pol_forced =
        (if reads_received then (Amac.Schedulers.adversarial ()).pol_forced
         else fun _ -> 0);
      pol_reads_received = reads_received;
    }
  in
  let sim = Dsim.Sim.create () in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:4. ~fprog:1. ~policy
      ~rng:(Dsim.Rng.create ~seed:0) ()
  in
  let body = (7, "prebuilt") in
  let left = ref 0 in
  for node = 0 to leaves do
    Amac.Standard_mac.attach mac ~node
      {
        Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ());
        on_ack =
          (fun b ->
            if !left > 0 then begin
              decr left;
              Amac.Standard_mac.bcast mac ~node b
            end);
      }
  done;
  let bcasts = 2_000 in
  let round () =
    left := bcasts - 1;
    Amac.Standard_mac.bcast mac ~node:hub body;
    ignore (Dsim.Sim.run sim)
  in
  round ();
  let before = Gc.minor_words () in
  round ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every bcast ran" (2 * bcasts)
    (Amac.Standard_mac.bcast_count mac);
  Alcotest.(check int) "every leaf received every bcast"
    (2 * bcasts * leaves) (Amac.Standard_mac.rcv_count mac);
  (words /. float_of_int bcasts, Amac.Standard_mac.forced_count mac)

(* Nothing on the MAC's event path allocates once its buffers have
   grown.  A bcast rewrites the MAC's one policy context and its plan
   buffer, whose delays are unboxed and posted from their cells, and
   the record of a released instance id, with its [served] and
   [pending] buffers.  Deliveries, acks and watchdogs are
   int-coded events of handlers the MAC registers once.  A fire writes
   its candidates into the forced context's columns and the policy
   answers with a position.  So widening the star from 8 to 32 leaves,
   which quadruples the deliveries and watchdogs per bcast, adds no
   word, and neither does stalling every delivery past Fprog so that
   every one is forced.  Under a policy that reads [fc_has_received] a
   bcast also interns its body (a hit allocates nothing), a delivery
   records its (body, receiver) pair in an int set and a fire's choice
   looks the pair up, so the same holds with the history kept. *)
let test_events_allocate_nothing () =
  List.iter
    (fun reads_received ->
      let words = star_words_per_bcast ~reads_received in
      let label fmt =
        Printf.ksprintf
          (fun s -> Printf.sprintf "%s, reads_received %b" s reads_received)
          fmt
      in
      List.iter
        (fun leaves ->
          let planned, forced = words ~leaves ~delay:0.5 in
          Alcotest.(check int) (label "no watchdog fired at %d leaves" leaves)
            0 forced;
          Alcotest.(check (float 0.))
            (label "words per bcast at %d leaves" leaves)
            0. planned;
          let stalled, fired = words ~leaves ~delay:4. in
          Alcotest.(check int)
            (label "every delivery forced at %d leaves" leaves)
            (2 * 2_000 * leaves) fired;
          Alcotest.(check (float 0.))
            (label "words per bcast at %d leaves, every delivery forced"
               leaves)
            0. stalled)
        [ 8; 32 ])
    [ false; true ]

let suite =
  [
    ( "amac.standard_mac",
      [
        Alcotest.test_case "basic delivery and ack" `Quick test_basic_delivery;
        Alcotest.test_case "user well-formedness enforced" `Quick
          test_well_formedness;
        Alcotest.test_case "ack bound respected" `Quick test_ack_within_fack;
        Alcotest.test_case "progress watchdog forces delivery" `Quick
          test_progress_watchdog_forces_delivery;
        Alcotest.test_case "undeclared history read refused by name" `Quick
          test_undeclared_history_read_refused;
        Alcotest.test_case "no duplicate delivery per instance" `Quick
          test_no_duplicate_instance_delivery;
        Alcotest.test_case "invalid plans rejected" `Quick
          test_invalid_plan_rejected;
        Alcotest.test_case "unreliable edges can deliver" `Quick
          test_unreliable_delivery_possible;
        Alcotest.test_case "trace records MAC events" `Quick
          test_trace_events_recorded;
        Alcotest.test_case "aborted instance lives out its window" `Quick
          test_abort_window_keeps_instance;
        Alcotest.test_case "deliveries, acks and watchdogs allocate nothing"
          `Quick test_events_allocate_nothing;
      ] );
  ]
