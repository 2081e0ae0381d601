let test_runs_in_order () =
  let sim = Dsim.Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Dsim.Sim.now sim) :: !log in
  ignore (Dsim.Sim.schedule_at sim ~time:2. (note "b"));
  ignore (Dsim.Sim.schedule_at sim ~time:1. (note "a"));
  ignore (Dsim.Sim.schedule_at sim ~time:3. (note "c"));
  let outcome = Dsim.Sim.run sim in
  Alcotest.(check bool) "drained" true (outcome = Dsim.Sim.Drained);
  Alcotest.(check (list (pair string (float 1e-9))))
    "order and clock"
    [ ("a", 1.); ("b", 2.); ("c", 3.) ]
    (List.rev !log)

let test_nested_scheduling () =
  let sim = Dsim.Sim.create () in
  let hits = ref 0 in
  ignore
    (Dsim.Sim.schedule_at sim ~time:1. (fun () ->
         incr hits;
         ignore (Dsim.Sim.schedule sim ~delay:1. (fun () -> incr hits))));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "both ran" 2 !hits;
  Alcotest.(check (float 1e-9)) "clock at 2" 2. (Dsim.Sim.now sim)

let test_causality () =
  let sim = Dsim.Sim.create () in
  ignore (Dsim.Sim.schedule_at sim ~time:5. (fun () -> ()));
  ignore (Dsim.Sim.run sim);
  (try
     ignore (Dsim.Sim.schedule_at sim ~time:1. (fun () -> ()));
     Alcotest.fail "expected Causality"
   with Dsim.Sim.Causality { now; requested } ->
     Alcotest.(check (float 1e-9)) "now" 5. now;
     Alcotest.(check (float 1e-9)) "requested" 1. requested);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      ignore (Dsim.Sim.schedule sim ~delay:(-1.) (fun () -> ())))

let test_cancel () =
  let sim = Dsim.Sim.create () in
  let hit = ref false in
  let h = Dsim.Sim.schedule_at sim ~time:1. (fun () -> hit := true) in
  Dsim.Sim.cancel sim h;
  ignore (Dsim.Sim.run sim);
  Alcotest.(check bool) "cancelled event did not run" false !hit

let test_until () =
  let sim = Dsim.Sim.create () in
  let hits = ref 0 in
  ignore (Dsim.Sim.schedule_at sim ~time:1. (fun () -> incr hits));
  ignore (Dsim.Sim.schedule_at sim ~time:10. (fun () -> incr hits));
  let outcome = Dsim.Sim.run ~until:5. sim in
  Alcotest.(check bool) "hit time limit" true (outcome = Dsim.Sim.Hit_time_limit);
  Alcotest.(check int) "only the early event" 1 !hits;
  Alcotest.(check (float 1e-9)) "clock advanced to horizon" 5.
    (Dsim.Sim.now sim);
  Alcotest.(check int) "late event still queued" 1 (Dsim.Sim.pending sim)

let test_max_events () =
  let sim = Dsim.Sim.create () in
  let rec reschedule () =
    ignore (Dsim.Sim.schedule sim ~delay:1. reschedule)
  in
  reschedule ();
  let outcome = Dsim.Sim.run ~max_events:100 sim in
  Alcotest.(check bool) "event budget" true (outcome = Dsim.Sim.Hit_event_limit)

let test_stop () =
  let sim = Dsim.Sim.create () in
  let hits = ref 0 in
  ignore
    (Dsim.Sim.schedule_at sim ~time:1. (fun () ->
         incr hits;
         Dsim.Sim.stop sim));
  ignore (Dsim.Sim.schedule_at sim ~time:2. (fun () -> incr hits));
  let outcome = Dsim.Sim.run sim in
  Alcotest.(check bool) "stopped" true (outcome = Dsim.Sim.Stopped);
  Alcotest.(check int) "later event skipped" 1 !hits

let test_resume_after_until () =
  let sim = Dsim.Sim.create () in
  let hits = ref 0 in
  ignore (Dsim.Sim.schedule_at sim ~time:10. (fun () -> incr hits));
  ignore (Dsim.Sim.run ~until:5. sim);
  let outcome = Dsim.Sim.run sim in
  Alcotest.(check bool) "drained on resume" true (outcome = Dsim.Sim.Drained);
  Alcotest.(check int) "event eventually ran" 1 !hits

(* Running an event costs the engine nothing: a queued event's category
   and callback live in arrays indexed by its heap slot, and the clock in
   an unboxed cell.  A thunk that allocates nothing itself and schedules
   its successor relative to the clock must cost no words per event,
   scheduling and running both. *)
let test_run_allocates_nothing () =
  let n = 100_000 in
  let sim = Dsim.Sim.create () in
  let left = ref 0 in
  let rec tick () =
    decr left;
    if !left > 0 then ignore (Dsim.Sim.schedule ~cat:"tick" sim ~delay:1. tick)
  in
  let round () =
    left := n;
    ignore (Dsim.Sim.schedule sim ~delay:0. tick);
    ignore (Dsim.Sim.run sim)
  in
  round () (* the queue's arrays grow here *);
  let before = Gc.minor_words () in
  round ();
  let per_event = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every tick ran" (2 * n) (Dsim.Sim.executed_events sim);
  Alcotest.(check bool)
    (Printf.sprintf "run allocated %.4f words per event" per_event)
    true (per_event < 0.01)

(* An int-coded event — a handler registered once, posted with an int —
   allocates nothing to post or to run, equal times included.  The
   alternating delays never repeat back to back, so those posts stay in
   the heap.  [tick] posts at one constant delay, as a watchdog or a
   round edge does, so its posts go to a lane: each of the [n / 8]
   chains the loop starts re-posts itself until it has run 8 times, at
   an advancing clock and with equal-time ties.  The delays are read
   from cells of one float array: [| 1; 2; 0.25 |]. *)
let test_post_allocates_nothing () =
  let n = 100_000 in
  let sim = Dsim.Sim.create () in
  let delays = [| 1.; 2.; 0.25 |] in
  let sum = ref 0 and last = ref 0 and in_order = ref true in
  let h =
    Dsim.Sim.register sim (fun arg ->
        (* Posts at one time run in posting order. *)
        if arg land 1 = 0 && arg < !last then in_order := false;
        if arg land 1 = 0 then last := arg;
        sum := !sum + arg)
  in
  let ticks = ref 0 and tick_last = ref (-1) and tick_order = ref true in
  let rec tick arg =
    incr ticks;
    (* [arg] is its chain's first argument, a multiple of 8, plus the
       hops so far.  Hop [j] runs at [0.25 * (j + 1)], so ticks run by
       hop, then in the order their chains were posted. *)
    let key = ((arg land 7) * n) + arg in
    if key <= !tick_last then tick_order := false;
    tick_last := key;
    if arg land 7 < 7 then
      ignore
        (Dsim.Sim.post sim ~delays ~at:2 (Lazy.force tick_id) (arg + 1))
  and tick_id = lazy (Dsim.Sim.register sim tick) in
  let tick_id = Lazy.force tick_id in
  let round () =
    sum := 0;
    last := 0;
    ticks := 0;
    for i = 1 to n do
      ignore (Dsim.Sim.post sim ~delays ~at:(i land 1) h i);
      if i land 7 = 0 then ignore (Dsim.Sim.post sim ~delays ~at:2 tick_id i)
    done;
    tick_last := -1;
    ignore (Dsim.Sim.run sim)
  in
  round ();
  let before = Gc.minor_words () in
  round ();
  let per_event =
    (Gc.minor_words () -. before) /. float_of_int (n + !ticks)
  in
  Alcotest.(check int) "every argument delivered" (n * (n + 1) / 2) !sum;
  Alcotest.(check bool) "equal times run in posting order" true !in_order;
  Alcotest.(check int) "every tick ran" n !ticks;
  Alcotest.(check bool) "lane ties run in posting order" true !tick_order;
  Alcotest.(check bool)
    (Printf.sprintf "post and run allocated %.4f words per event" per_event)
    true (per_event < 0.01)

let test_post_rejects () =
  let sim = Dsim.Sim.create () in
  let other = Dsim.Sim.create () in
  let h = Dsim.Sim.register sim ignore in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.post: negative delay") (fun () ->
      ignore (Dsim.Sim.post sim ~delays:[| 1.; -1. |] ~at:1 h 0));
  Alcotest.check_raises "handler id out of range"
    (Invalid_argument "Sim.post: handler id out of range for this simulation")
    (fun () -> ignore (Dsim.Sim.post other ~delays:[| 1. |] ~at:0 h 0))

let suite =
  [
    ( "dsim.sim",
      [
        Alcotest.test_case "events run in time order" `Quick test_runs_in_order;
        Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
        Alcotest.test_case "causality enforced" `Quick test_causality;
        Alcotest.test_case "cancellation" `Quick test_cancel;
        Alcotest.test_case "until horizon" `Quick test_until;
        Alcotest.test_case "max_events budget" `Quick test_max_events;
        Alcotest.test_case "stop from callback" `Quick test_stop;
        Alcotest.test_case "resume after horizon" `Quick test_resume_after_until;
        Alcotest.test_case "run allocates nothing per event" `Quick
          test_run_allocates_nothing;
        Alcotest.test_case "posted events allocate nothing" `Quick
          test_post_allocates_nothing;
        Alcotest.test_case "post rejects bad arguments" `Quick
          test_post_rejects;
      ] );
  ]
