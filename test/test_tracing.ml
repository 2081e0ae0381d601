(* The observability exports (lib/obs Tracing/Provenance and lib/exec
   Telemetry): determinism of the trace files, the provenance DAG's
   structural invariants, and the zero-allocation contract of Dsim.Trace
   dispatch when tracing is off. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_path name =
  let p = Filename.concat "_tracing_test" name in
  rm_rf p;
  p

(* One observed BMMB run on a 12-node line, its entries kept. *)
let line12 = lazy (Graphs.Dual.of_equal (Graphs.Gen.line 12))

let traced_run ~seed =
  let n = 12 in
  let dual = Lazy.force line12 in
  let rng = Dsim.Rng.create ~seed in
  let assignment = Mmb.Problem.random rng ~n ~k:3 in
  let kept = Dsim.Trace.create () in
  ignore
    (Mmb.Runner.run_bmmb ~dual ~fack:20. ~fprog:1.
       ~policy:(Amac.Schedulers.random_compliant ())
       ~assignment ~seed ~check_compliance:true
       ~instrument:(Obs.Run.instrument ~attach:(Kept.attach kept) ())
       ());
  (n, kept)

let perfetto_string tr =
  let col = Obs.Tracing.Sim.create () in
  Kept.replay ~dual:(Lazy.force line12) tr (Obs.Tracing.Sim.attach col);
  Obs.Tracing.to_string (Obs.Tracing.Sim.finish col)

(* --- Dsim.Trace dispatch: zero allocation when off ------------------------ *)

let test_record_zero_alloc_when_off () =
  let tr = Dsim.Trace.create ~enabled:false () in
  let event = Dsim.Trace.Arrive { node = 1; msg = 2 } in
  (* Warm up so any one-time allocation is out of the measured window. *)
  Dsim.Trace.record tr ~time:1. event;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Dsim.Trace.record tr ~time:1. event
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "100k records on a disabled trace allocated %.0f words"
       allocated)
    true
    (allocated < 512.);
  Alcotest.(check int) "records still counted" 100_001 (Dsim.Trace.recorded tr)

(* The MAC plan-time path (policy consult + delivery-plan build) with
   tracing off: each sender's reuse of its last instance's buffers and
   the epoch-stamped scratch make a steady-state bcast→ack cycle
   allocate a small constant — the instance record, the plan, the
   event closures — independent of history.  A leak (per-cycle table
   growth, retained plans) shows up as a growing per-cycle figure; the
   bound is deliberately a few dozen times the honest cost so only real
   regressions trip it. *)
let test_mac_plan_path_alloc_bounded () =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 2) in
  let sim = Dsim.Sim.create () in
  let rng = Dsim.Rng.create ~seed:0 in
  let mac =
    Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:1.
      ~policy:(Amac.Schedulers.eager ()) ~rng ()
  in
  for node = 0 to 1 do
    Amac.Standard_mac.attach mac ~node
      { Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ()); on_ack = (fun _ -> ()) }
  done;
  let t = ref 0. in
  let cycle msg =
    ignore
      (Dsim.Sim.schedule_at sim ~time:!t (fun () ->
           Amac.Standard_mac.bcast mac ~node:0 msg));
    ignore (Dsim.Sim.run sim);
    t := !t +. 100.
  in
  (* Warm up: pools, scratch arrays and the heap reach steady state. *)
  for i = 1 to 64 do
    cycle i
  done;
  let cycles = 1_000 in
  let before = Gc.minor_words () in
  for i = 1 to cycles do
    cycle (64 + i)
  done;
  let per_cycle = (Gc.minor_words () -. before) /. float_of_int cycles in
  Alcotest.(check bool)
    (Printf.sprintf
       "steady-state bcast cycle allocates %.1f minor words" per_cycle)
    true (per_cycle < 256.);
  Alcotest.(check int) "all bcasts acked" (64 + cycles)
    (Amac.Standard_mac.ack_count mac)

let test_subscribers_fire_in_registration_order () =
  let tr = Dsim.Trace.create ~enabled:false () in
  let seen = ref [] in
  Dsim.Trace.subscribe tr (fun _ -> seen := "a" :: !seen);
  Dsim.Trace.subscribe tr (fun _ -> seen := "b" :: !seen);
  Dsim.Trace.record tr ~time:0. (Dsim.Trace.Arrive { node = 0; msg = 0 });
  Alcotest.(check (list string))
    "registration order" [ "a"; "b" ] (List.rev !seen)

(* --- Perfetto export ------------------------------------------------------- *)

let test_trace_same_seed_byte_identical () =
  let _, tr1 = traced_run ~seed:11 in
  let _, tr2 = traced_run ~seed:11 in
  Alcotest.(check string)
    "same seed, byte-identical Perfetto document" (perfetto_string tr1)
    (perfetto_string tr2)

let test_trace_validates () =
  let _, tr = traced_run ~seed:4 in
  let doc = perfetto_string tr in
  (match Obs.Tracing.validate_string doc with
  | Ok count -> Alcotest.(check bool) "has events" true (count > 0)
  | Error e -> Alcotest.fail e);
  (match Obs.Tracing.validate_string "{\"traceEvents\":[]}" with
  | Ok _ -> Alcotest.fail "schema-less document must not validate"
  | Error _ -> ());
  match
    Obs.Tracing.validate_string
      "{\"traceEvents\":[],\"otherData\":{\"schema\":\"bogus/9\"}}"
  with
  | Ok _ -> Alcotest.fail "wrong schema must not validate"
  | Error _ -> ()

(* --- Provenance ------------------------------------------------------------ *)

let provenance_of ~n tr =
  let p = Obs.Provenance.create ~n () in
  Kept.replay ~dual:(Lazy.force line12) tr (Obs.Provenance.attach p);
  p

let test_provenance_dag_invariants () =
  let n, tr = traced_run ~seed:7 in
  let p = provenance_of ~n tr in
  let msgs = Obs.Provenance.messages p in
  Alcotest.(check int) "all 3 messages observed" 3 (List.length msgs);
  (* Roots must be the origin Arrive events of the underlying trace. *)
  let arrives = Hashtbl.create 8 in
  Dsim.Trace.iter tr (fun { Dsim.Trace.time; event } ->
      match event with
      | Dsim.Trace.Arrive { node; msg } ->
          if not (Hashtbl.mem arrives msg) then
            Hashtbl.replace arrives msg (node, time)
      | _ -> ());
  List.iter
    (fun msg ->
      let root = Obs.Provenance.root p msg in
      Alcotest.(check bool)
        (Printf.sprintf "msg %d root is its Arrive" msg)
        true
        (root = Hashtbl.find_opt arrives msg);
      (* Acyclicity / forest shape: walking receipts in event order, every
         receipt's node is new and its source already knows the message. *)
      let knowing = Hashtbl.create 16 in
      (match root with
      | Some (node, _) -> Hashtbl.replace knowing node ()
      | None -> Alcotest.fail "message without a root");
      let receipts = Obs.Provenance.receipts p msg in
      Alcotest.(check int)
        (Printf.sprintf "msg %d reaches all other nodes" msg)
        (n - 1) (List.length receipts);
      List.iter
        (fun r ->
          Alcotest.(check bool)
            "receipt node is new" false
            (Hashtbl.mem knowing r.Obs.Provenance.r_node);
          (match r.Obs.Provenance.r_src with
          | Some src ->
              Alcotest.(check bool)
                "edge source already knew the message" true
                (Hashtbl.mem knowing src)
          | None -> Alcotest.fail "receipt without an observed broadcast");
          Alcotest.(check bool)
            "depth is at least one hop" true
            (r.Obs.Provenance.r_depth >= 1);
          (* The queue/mac split telescopes: accumulated components along
             the causal path equal receipt time minus arrival time. *)
          let arrive_t = snd (Option.get root) in
          Alcotest.(check (float 1e-9))
            "cum queue + cum mac = elapsed since arrival"
            (r.Obs.Provenance.r_time -. arrive_t)
            (r.Obs.Provenance.r_cum_queue +. r.Obs.Provenance.r_cum_mac);
          Hashtbl.replace knowing r.Obs.Provenance.r_node ())
        receipts)
    msgs

let test_provenance_export_validates () =
  let n, tr = traced_run ~seed:9 in
  let p = provenance_of ~n tr in
  let text = String.concat "\n" (Obs.Provenance.jsonl p) in
  (match Obs.Provenance.validate_string text with
  | Ok lines -> Alcotest.(check bool) "has lines" true (lines > 1)
  | Error e -> Alcotest.fail e);
  match Obs.Provenance.validate_string "{\"kind\":\"meta\",\"schema\":\"x\"}" with
  | Ok _ -> Alcotest.fail "wrong schema must not validate"
  | Error _ -> ()

(* --- Campaign timelines ---------------------------------------------------- *)

let sim_job seed =
  Exec.Job.make
    ~spec:
      (Dsim.Json.Obj
         [
           ("kind", Dsim.Json.String "tracing-bmmb");
           ("seed", Dsim.Json.Number (float_of_int seed));
         ])
    (fun () ->
      let dual = Graphs.Dual.of_equal (Graphs.Gen.line 12) in
      let rng = Dsim.Rng.create ~seed in
      let assignment = Mmb.Problem.random rng ~n:12 ~k:3 in
      let res =
        Obs.Run.bmmb ~dual ~fack:20. ~fprog:1.
          ~policy:(Amac.Schedulers.random_compliant ())
          ~assignment ~seed ()
      in
      Exec.Sink.printf "seed=%d time=%.1f\n" seed res.Mmb.Runner.time;
      Dsim.Json.Obj [ ("time", Dsim.Json.Number res.Mmb.Runner.time) ])

let virtual_doc outcomes =
  Obs.Tracing.to_string (Exec.Telemetry.virtual_trace outcomes)

let test_campaign_trace_identity_across_jobs () =
  let job_list () = List.init 6 sim_job in
  let o1, _ = Exec.Campaign.run ~jobs:1 (job_list ()) in
  let o2, _ = Exec.Campaign.run ~jobs:2 (job_list ()) in
  let o4, _ = Exec.Campaign.run ~jobs:4 (job_list ()) in
  Alcotest.(check string)
    "virtual timeline, jobs 1 = jobs 2" (virtual_doc o1) (virtual_doc o2);
  Alcotest.(check string)
    "virtual timeline, jobs 1 = jobs 4" (virtual_doc o1) (virtual_doc o4)

let test_campaign_trace_identity_ran_vs_cached () =
  let dir = fresh_path "cache" in
  let job_list () = List.init 4 sim_job in
  let cache = Exec.Cache.create ~dir in
  let ran, s1 = Exec.Campaign.run ~jobs:2 ~cache (job_list ()) in
  let cached, s2 = Exec.Campaign.run ~jobs:2 ~cache (job_list ()) in
  Alcotest.(check int) "first run executed" 4 s1.Exec.Campaign.ran;
  Alcotest.(check int) "second run fully cached" 4 s2.Exec.Campaign.cached;
  Alcotest.(check string)
    "virtual timeline, ran = cached" (virtual_doc ran) (virtual_doc cached)

let test_campaign_telemetry_and_cache_counters () =
  let dir = fresh_path "cache-counters" in
  let cache = Exec.Cache.create ~dir in
  (* A deterministic injected clock: each reading advances 0.25s. *)
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    0.25 *. float_of_int !ticks
  in
  let _, s1 = Exec.Campaign.run ~jobs:2 ~cache ~clock (List.init 3 sim_job) in
  let outcomes, s2 =
    Exec.Campaign.run ~jobs:2 ~cache ~clock (List.init 3 sim_job)
  in
  Alcotest.(check int) "3 misses on the cold run" 3 s1.Exec.Campaign.cache_misses;
  Alcotest.(check int) "3 hits on the warm run" 3 s2.Exec.Campaign.cache_hits;
  Alcotest.(check bool)
    "executed jobs accumulated busy time" true
    (s1.Exec.Campaign.busy_s > 0.);
  Alcotest.(check bool)
    "elapsed spans the campaign" true
    (s1.Exec.Campaign.elapsed_s > 0.);
  let summary = Exec.Telemetry.summary ~jobs:2 s1 in
  Alcotest.(check bool)
    "summary reports utilization" true
    (let needle = "pool utilization" in
     let rec find i =
       i + String.length needle <= String.length summary
       && (String.sub summary i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  (* Replayed outcomes carry no worker placement. *)
  Array.iter
    (fun o ->
      Alcotest.(check int)
        "cached outcome has no worker" (-1) o.Exec.Campaign.worker)
    outcomes;
  (* The wall timeline only contains executed jobs: empty here. *)
  Alcotest.(check int)
    "wall trace of a fully-cached run has only metadata" 1
    (Obs.Tracing.event_count (Exec.Telemetry.wall_trace outcomes))

let suite =
  [
    ( "tracing",
      [
        Alcotest.test_case "record allocates nothing when off" `Quick
          test_record_zero_alloc_when_off;
        Alcotest.test_case "MAC plan path allocates O(1) per cycle" `Quick
          test_mac_plan_path_alloc_bounded;
        Alcotest.test_case "subscribers fire in registration order" `Quick
          test_subscribers_fire_in_registration_order;
        Alcotest.test_case "same seed, byte-identical Perfetto trace" `Slow
          test_trace_same_seed_byte_identical;
        Alcotest.test_case "Perfetto document validates" `Quick
          test_trace_validates;
        Alcotest.test_case "provenance DAG invariants" `Quick
          test_provenance_dag_invariants;
        Alcotest.test_case "provenance export validates" `Quick
          test_provenance_export_validates;
        Alcotest.test_case "campaign timeline identical for jobs 1/2/4" `Slow
          test_campaign_trace_identity_across_jobs;
        Alcotest.test_case "campaign timeline identical ran vs cached" `Slow
          test_campaign_trace_identity_ran_vs_cached;
        Alcotest.test_case "campaign telemetry and cache counters" `Slow
          test_campaign_telemetry_and_cache_counters;
      ] );
  ]
