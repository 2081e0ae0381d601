(* The campaign runner (lib/exec): deterministic merge across worker
   counts and job orders, the content-addressed cache (which is also the
   checkpoint an interrupted campaign resumes from), and the Sink capture
   plumbing.

   The identity tests run real 2- and 4-domain campaigns, so `dune
   runtest` exercises the parallel path itself, not just the sequential
   fallback. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_path name =
  let p = Filename.concat "_exec_test" name in
  rm_rf p;
  p

(* A job that runs a real BMMB simulation: everything (topology, problem,
   scheduler, seeds) derives from the spec, so it must be reproducible on
   any worker in any order — the property these tests pin down. *)
let sim_job seed =
  Exec.Job.make
    ~spec:
      (Dsim.Json.Obj
         [
           ("kind", Dsim.Json.String "line-bmmb");
           ("n", Dsim.Json.Number 12.);
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
      Exec.Sink.printf "job seed=%d time=%.1f\n" seed res.Mmb.Runner.time;
      Dsim.Json.Obj
        [
          ("time", Dsim.Json.Number res.Mmb.Runner.time);
          ("bcasts", Dsim.Json.Number (float_of_int res.Mmb.Runner.bcasts));
          ("complete", Dsim.Json.Bool res.Mmb.Runner.complete);
        ])

(* Everything observable about an outcome except wall clock. *)
let signature outcomes =
  Array.to_list outcomes
  |> List.map (fun o ->
         Printf.sprintf "%d|%s|%s|%s|%s" o.Exec.Campaign.index
           o.Exec.Campaign.digest
           (Dsim.Json.to_string o.Exec.Campaign.result)
           o.Exec.Campaign.output
           (Dsim.Json.to_string
              (Obs.Global.snap_to_json o.Exec.Campaign.engine)))

let sources outcomes =
  Array.to_list outcomes
  |> List.map (fun o ->
         match o.Exec.Campaign.source with
         | Exec.Campaign.Ran -> "ran"
         | Exec.Campaign.Cached -> "cached")

(* --- Deterministic merge across worker counts ---------------------------- *)

let test_parallel_identity () =
  let job_list () = List.init 8 sim_job in
  let serial, s1 = Exec.Campaign.run ~jobs:1 (job_list ()) in
  let two, s2 = Exec.Campaign.run ~jobs:2 (job_list ()) in
  let four, s4 = Exec.Campaign.run ~jobs:4 (job_list ()) in
  Alcotest.(check (list string))
    "2 domains, byte-identical outcomes" (signature serial) (signature two);
  Alcotest.(check (list string))
    "4 domains, byte-identical outcomes" (signature serial) (signature four);
  List.iter
    (fun s -> Alcotest.(check int) "all executed" 8 s.Exec.Campaign.ran)
    [ s1; s2; s4 ];
  Array.iteri
    (fun i o ->
      Alcotest.(check int) "slot i holds job i" i o.Exec.Campaign.index;
      Alcotest.(check bool)
        "each job contributes one engine run" true
        (o.Exec.Campaign.engine.Obs.Global.runs = 1))
    serial

(* Satellite: per-worker RNG hygiene.  The same cell embedded in different
   job lists lands on different workers in a different interleaving — its
   result must not change. *)
let test_rng_hygiene_across_orders () =
  let find seed outcomes =
    let target = Exec.Job.digest ~salt:"" (sim_job seed) in
    Array.to_list outcomes
    |> List.find (fun o -> o.Exec.Campaign.digest = target)
  in
  let a, _ =
    Exec.Campaign.run ~jobs:2 [ sim_job 5; sim_job 6; sim_job 7 ]
  in
  let b, _ =
    Exec.Campaign.run ~jobs:2 [ sim_job 7; sim_job 9; sim_job 5; sim_job 3 ]
  in
  List.iter
    (fun seed ->
      let oa = find seed a and ob = find seed b in
      Alcotest.(check string)
        (Printf.sprintf "seed %d result independent of order/worker" seed)
        (Dsim.Json.to_string oa.Exec.Campaign.result)
        (Dsim.Json.to_string ob.Exec.Campaign.result);
      Alcotest.(check string)
        (Printf.sprintf "seed %d report text too" seed)
        oa.Exec.Campaign.output ob.Exec.Campaign.output)
    [ 5; 7 ]

(* --- Content-addressed cache --------------------------------------------- *)

let test_cache_hit_and_salt_invalidation () =
  let dir = fresh_path "cache_roundtrip" in
  let jobs () = List.init 4 sim_job in
  let run salt =
    let cache = Exec.Cache.create ~dir in
    let outcomes, stats = Exec.Campaign.run ~jobs:1 ~salt ~cache (jobs ()) in
    (signature outcomes, stats)
  in
  let sig1, s1 = run "v1" in
  Alcotest.(check int) "cold cache executes all" 4 s1.Exec.Campaign.ran;
  let sig2, s2 = run "v1" in
  Alcotest.(check int) "warm cache executes none" 0 s2.Exec.Campaign.ran;
  Alcotest.(check int) "all four served from cache" 4 s2.Exec.Campaign.cached;
  Alcotest.(check (list string)) "replay is byte-identical" sig1 sig2;
  let _, s3 = run "v2" in
  Alcotest.(check int) "salt bump invalidates everything" 4
    s3.Exec.Campaign.ran

let test_cache_counts_hits () =
  let dir = fresh_path "cache_counts" in
  let cache = Exec.Cache.create ~dir in
  let _ = Exec.Campaign.run ~jobs:1 ~cache [ sim_job 1; sim_job 2 ] in
  Alcotest.(check int) "two misses on a cold cache" 2
    (Exec.Cache.misses cache);
  let cache2 = Exec.Cache.create ~dir in
  let _ = Exec.Campaign.run ~jobs:1 ~cache:cache2 [ sim_job 1; sim_job 2 ] in
  Alcotest.(check int) "two hits on the warm cache" 2 (Exec.Cache.hits cache2)

(* A killed run leaves [*.jsonl.tmp.<disc>] orphans behind (the window
   between [store]'s open and its rename); re-opening the cache must
   sweep them while leaving finished entries and unrelated files alone. *)
let test_cache_sweeps_orphaned_tmp () =
  let dir = fresh_path "cache_orphans" in
  let cache = Exec.Cache.create ~dir in
  let _ = Exec.Campaign.run ~jobs:1 ~cache [ sim_job 1; sim_job 2 ] in
  let write name text =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc text;
    close_out oc
  in
  write "deadbeef.jsonl.tmp.3" "{\"torn\":";
  write "cafe.jsonl.tmp.0" "";
  write "unrelated.txt" "keep me";
  let cache2 = Exec.Cache.create ~dir in
  let names = Array.to_list (Sys.readdir dir) in
  Alcotest.(check bool)
    "orphaned temp files removed" false
    (List.exists (fun n -> Filename.check_suffix n ".tmp.3" || Filename.check_suffix n ".tmp.0") names);
  Alcotest.(check bool)
    "unrelated files kept" true
    (List.mem "unrelated.txt" names);
  let _ = Exec.Campaign.run ~jobs:1 ~cache:cache2 [ sim_job 1; sim_job 2 ] in
  Alcotest.(check int) "finished entries survived the sweep" 2
    (Exec.Cache.hits cache2)

(* --- The cache is the checkpoint ------------------------------------------ *)

(* A campaign killed after three of its six cells: those three were
   stored as they finished, and the kill landed while the fourth was being
   written, leaving its temp file torn.  Re-running the whole campaign
   with the same cache replays the three, runs the rest, and matches an
   uninterrupted run. *)
let test_resume_from_torn_partial_cache () =
  let dir = fresh_path "resume" in
  let all = List.init 6 sim_job in
  let baseline, _ = Exec.Campaign.run ~jobs:1 all in
  let _, s1 =
    Exec.Campaign.run ~jobs:1 ~cache:(Exec.Cache.create ~dir)
      (List.filteri (fun i _ -> i < 3) all)
  in
  Alcotest.(check int) "interrupted run executed its prefix" 3
    s1.Exec.Campaign.ran;
  let oc =
    open_out_bin
      (Filename.concat dir
         (Exec.Job.digest ~salt:"" (sim_job 3) ^ ".jsonl.tmp.0"))
  in
  output_string oc "{\"result\": {\"time\"";
  close_out oc;
  let resumed, s2 =
    Exec.Campaign.run ~jobs:2 ~cache:(Exec.Cache.create ~dir) all
  in
  Alcotest.(check int) "three jobs served from the cache" 3
    s2.Exec.Campaign.cached;
  Alcotest.(check int) "three executed fresh" 3 s2.Exec.Campaign.ran;
  Alcotest.(check (list string))
    "prefix replayed, remainder computed"
    [ "cached"; "cached"; "cached"; "ran"; "ran"; "ran" ]
    (sources resumed);
  Alcotest.(check (list string))
    "resumed campaign is byte-identical to an uninterrupted one"
    (signature baseline) (signature resumed);
  (* The completed campaign stored everything: a third invocation replays
     all six without touching the simulator. *)
  let _, s3 =
    Exec.Campaign.run ~jobs:1 ~cache:(Exec.Cache.create ~dir) all
  in
  Alcotest.(check int) "a finished campaign leaves nothing to run" 0
    s3.Exec.Campaign.ran

(* --- Job keying ------------------------------------------------------------ *)

let test_canonical_key_order_invariance () =
  let a =
    Dsim.Json.Obj
      [
        ("n", Dsim.Json.Number 12.);
        ("seed", Dsim.Json.Number 3.);
        ("nested", Dsim.Json.Obj [ ("b", Dsim.Json.Null); ("a", Dsim.Json.Bool true) ]);
      ]
  in
  let b =
    Dsim.Json.Obj
      [
        ("nested", Dsim.Json.Obj [ ("a", Dsim.Json.Bool true); ("b", Dsim.Json.Null) ]);
        ("seed", Dsim.Json.Number 3.);
        ("n", Dsim.Json.Number 12.);
      ]
  in
  Alcotest.(check string) "field order never changes the canonical form"
    (Exec.Job.canonical a) (Exec.Job.canonical b);
  let job spec = Exec.Job.make ~spec (fun () -> Dsim.Json.Null) in
  Alcotest.(check string) "so digests agree"
    (Exec.Job.digest ~salt:"s" (job a))
    (Exec.Job.digest ~salt:"s" (job b));
  Alcotest.(check bool) "salt is part of the address" false
    (Exec.Job.digest ~salt:"s" (job a) = Exec.Job.digest ~salt:"t" (job a));
  Alcotest.(check bool) "spec is part of the address" false
    (Exec.Job.digest ~salt:"s" (job a)
    = Exec.Job.digest ~salt:"s" (job Dsim.Json.Null))

(* --- Sink ------------------------------------------------------------------ *)

let test_sink_capture_nests () =
  let (), outer =
    Exec.Sink.capture (fun () ->
        Exec.Sink.emit "a";
        let (), inner = Exec.Sink.capture (fun () -> Exec.Sink.emit "b") in
        Alcotest.(check string) "inner capture sees only its own text" "b"
          inner;
        Exec.Sink.printf "%c" 'c')
  in
  Alcotest.(check string) "outer capture excludes the nested text" "ac" outer

let suite =
  [
    ( "exec",
      [
        Alcotest.test_case "deterministic merge at 1/2/4 domains" `Quick
          test_parallel_identity;
        Alcotest.test_case "per-worker RNG hygiene across orders" `Quick
          test_rng_hygiene_across_orders;
        Alcotest.test_case "cache round-trip + salt invalidation" `Quick
          test_cache_hit_and_salt_invalidation;
        Alcotest.test_case "cache hit/miss accounting" `Quick
          test_cache_counts_hits;
        Alcotest.test_case "cache sweeps orphaned temp files" `Quick
          test_cache_sweeps_orphaned_tmp;
        Alcotest.test_case "resume from a torn partial cache" `Quick
          test_resume_from_torn_partial_cache;
        Alcotest.test_case "canonical job keying" `Quick
          test_canonical_key_order_invariance;
        Alcotest.test_case "sink capture nesting" `Quick
          test_sink_capture_nests;
      ] );
  ]
