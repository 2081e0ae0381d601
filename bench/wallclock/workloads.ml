(* The benchmark's five workloads.  Each is built from a seed (the same
   seed gives the same graph, dual and assignment) and handed to the
   library as a finished instance, so setup is timed apart from the run.
   README.md records why each one is in the set. *)

let names =
  [ "serial_grid"; "serial_grid_checked"; "mega_line"; "mega_grid"; "fmmb_grey" ]

let fprog = 1.
let serial_fack = 20.
let mega_fack = 8.
let partitions = 8

(* Worker domains of the traced pass's mega runs; nothing here uses more. *)
let domains = 2

type input =
  | Serial of {
      dual : Graphs.Dual.t;
      assignment : Mmb.Problem.assignment;
      seed : int;
      checked : bool;  (** attach spans and the streaming monitor *)
    }
  | Mega of {
      dual : Graphs.Dual.t;
      assignment : Mmb.Problem.assignment;
      seed : int;
    }
  | Fmmb of {
      instances : (Graphs.Dual.t * Mmb.Problem.assignment) list;
          (** one FMMB run per instance in a sample, run seeds seed, seed+1, ... *)
      seed : int;
    }

let dual_of = function
  | Serial { dual; _ } | Mega { dual; _ } -> dual
  | Fmmb { instances; _ } -> fst (List.hd instances)

(* --- Setup ---------------------------------------------------------------- *)

(* [phase.run name f] runs one setup step; the caller times it. *)
type phase = { run : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { run = (fun _ f -> f ()) }

let build ?(phase = untimed) ~smoke ~seed name =
  let rng = Dsim.Rng.create ~seed in
  let gen f = phase.run "setup.gen" f and mk_dual f = phase.run "setup.dual" f in
  match name with
  | "serial_grid" | "serial_grid_checked" ->
      let side = if smoke then 4 else 32 in
      let g = gen (fun () -> Graphs.Gen.grid ~rows:side ~cols:side) in
      let dual =
        mk_dual (fun () ->
            Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:(2 * side * side))
      in
      let checked = String.equal name "serial_grid_checked" in
      Serial
        {
          dual;
          assignment =
            Mmb.Problem.all_at ~node:0
              ~k:(if smoke then 2 else if checked then 8 else 32);
          seed;
          checked;
        }
  | "mega_line" | "mega_grid" ->
      let g =
        gen (fun () ->
            if String.equal name "mega_line" then
              Graphs.Gen.line (if smoke then 10_000 else 100_000)
            else
              let side = if smoke then 100 else 200 in
              Graphs.Gen.grid ~rows:side ~cols:side)
      in
      let dual = mk_dual (fun () -> Graphs.Dual.of_equal g) in
      (* One message at each end (line) or opposite corner (grid): both
         cross the whole graph, so the window count does not swing with
         where a seeded draw put the sources. *)
      let n = Graphs.Graph.n g in
      Mega { dual; assignment = [ (0, 0); (n - 1, 1) ]; seed }
  | "fmmb_grey" ->
      (* FMMB's work follows the geometry (MIS size, spread phases): on
         uniform random points it swung by about 10% from seed to seed,
         and so did run time.  So the points are a square lattice of
         spacing 0.7 that the seed jitters by up to 0.1 per coordinate.
         Lattice neighbours stay within distance 1, so G is connected
         and set-up never retries.  G' is the whole grey zone out to
         c = 2.  A sample runs two such instances. *)
      let side = if smoke then 3 else 8 in
      let n = side * side in
      let jitter () = Dsim.Rng.float rng 0.2 -. 0.1 in
      let instance () =
        let points =
          gen (fun () ->
              Array.init n (fun i ->
                  Graphs.Geometry.point
                    ((0.7 *. float_of_int (i mod side)) +. jitter ())
                    ((0.7 *. float_of_int (i / side)) +. jitter ())))
        in
        let dual = mk_dual (fun () -> Graphs.Dual.of_embedding ~points ~c:2.) in
        (dual, Mmb.Problem.singleton rng ~n ~k:(if smoke then 2 else 8))
      in
      Fmmb { instances = List.init (if smoke then 1 else 2) (fun _ -> instance ()); seed }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* --- Runs ----------------------------------------------------------------- *)

type outcome = {
  events : int;  (** engine callbacks, summed over partitions *)
  counters : (string * float) list;
      (** deterministic results: every sample must repeat them exactly *)
  failure : string option;  (** why the sample is wrong, if it is *)
}

(* Outside-in hooks for the traced pass: [wrap_policy] sees the serial
   scheduler policy before the run, [on_sim] each engine (before the run
   on the serial path, after it on FMMB's stage engines). *)
type probe = {
  wrap_policy : int Amac.Mac_intf.policy -> int Amac.Mac_intf.policy;
  on_sim : Dsim.Sim.t -> unit;
}

let no_probe = { wrap_policy = Fun.id; on_sim = ignore }

type observer = Unobserved | Spans_only | Spans_and_monitor

let first_failure checks =
  List.find_map (fun (ok, why) -> if ok then None else Some why) checks

let int x = float_of_int x

(* Engine counters of one sample.  The registry is reset first: its heap
   high-water mark is a running maximum that [Obs.Global.diff] does not
   subtract. *)
let engine_sample f =
  Obs.Global.reset ();
  let r = f () in
  (r, Obs.Global.snapshot ())

let engine_counters (d : Obs.Global.snap) =
  [
    ("dsim.heap_pushes", int d.Obs.Global.pushes);
    ("dsim.heap_cancelled", int d.Obs.Global.cancelled);
    ("dsim.heap_high_water", int d.Obs.Global.heap_high_water);
  ]

let run_serial ~probe ~observer ~dual ~assignment ~seed =
  let n = Graphs.Dual.n dual in
  let obs =
    match observer with
    | Unobserved -> None
    | Spans_only -> Some (Obs.Observer.create ~n ())
    | Spans_and_monitor ->
        Some (Obs.Observer.create ~n ~dual ~fack:serial_fack ~fprog ())
  in
  let r, d =
    engine_sample @@ fun () ->
    Obs.Run.bmmb ~dual ~fack:serial_fack ~fprog
      ~policy:(probe.wrap_policy (Amac.Schedulers.random_compliant ()))
      ~assignment ~seed ?obs ~setup:probe.on_sim ()
  in
  let violations =
    match Option.bind obs Obs.Observer.monitor with
    | Some m -> Obs.Monitor.violation_count m
    | None -> 0
  in
  let open Mmb.Runner in
  {
    events = r.events_executed;
    counters =
      engine_counters d
      @ [
          ("mmb.bcasts", int r.bcasts);
          ("mmb.rcvs", int r.rcvs);
          ("mmb.acks", int r.acks);
          ("amac.forced_deliveries", int r.forced);
          ("mmb.bound_ratio", r.time /. r.upper_bound);
        ];
    failure =
      first_failure
        [
          (r.complete, "BMMB run incomplete");
          (r.within_bound, "BMMB run exceeded its paper bound");
          (r.duplicate_deliveries = 0, "duplicate deliveries");
          (violations = 0, "streaming monitor reported a violation");
        ];
  }

let run_mega ~domains ~dual ~assignment ~seed =
  let r =
    Mmb.Runner.run_bmmb_pdes ~dual ~fack:mega_fack ~fprog
      ~policy:(Amac.Schedulers.random_compliant ())
      ~assignment ~seed ~partitions ~domains ()
  in
  let open Mmb.Runner in
  let n = Graphs.Dual.n dual in
  {
    events = r.pd_events;
    counters =
      [
        ("dsim.heap_high_water", int r.pd_heap_high_water);
        ("mmb.bcasts", int r.pd_bcasts);
        ("mmb.rcvs", int r.pd_rcvs);
        ("mmb.acks", int r.pd_acks);
        ("mmb.bound_ratio", r.pd_time /. r.pd_upper_bound);
        ("pdes.windows", int r.pd_windows);
        ("pdes.deliveries", int r.pd_deliveries);
        ("pdes.remote_deliveries", int r.pd_remote);
        ("graphs.cut_edges", int r.pd_cut_edges);
      ];
    failure =
      first_failure
        [
          (r.pd_complete, "mega run incomplete");
          (r.pd_within_bound, "mega run exceeded its paper bound");
          ( r.pd_deliveries = n * List.length assignment,
            "mega run delivered a message twice or not at all" );
        ];
  }

let run_fmmb ~probe ~instances ~seed =
  let instrument =
    {
      Mmb.Instrument.none with
      Mmb.Instrument.note_sim =
        (fun sim ->
          Obs.Global.note_sim sim;
          probe.on_sim sim);
    }
  in
  let results, d =
    engine_sample @@ fun () ->
    List.mapi
      (fun i (dual, assignment) ->
        Mmb.Runner.run_fmmb ~dual ~fprog ~c:2.
          ~policy:(Amac.Enhanced_mac.minimal_random ())
          ~backend:(Mmb.Fmmb.Continuous Amac.Round_sync.Generous)
          ~assignment ~seed:(seed + i) ~instrument ())
      instances
  in
  let sum f =
    int (List.fold_left (fun acc r -> acc + f r.Mmb.Runner.fmmb) 0 results)
  in
  let open Mmb.Fmmb in
  {
    events = d.Obs.Global.events;
    counters =
      engine_counters d
      @ [
          ("mmb.rounds_mis", sum (fun f -> f.rounds_mis));
          ("mmb.rounds_gather", sum (fun f -> f.rounds_gather));
          ("mmb.rounds_spread", sum (fun f -> f.rounds_spread));
          ( "mmb.bound_ratio",
            List.fold_left
              (fun acc r ->
                Float.max acc (r.Mmb.Runner.fmmb.time /. r.Mmb.Runner.shape_bound))
              0. results );
        ];
    failure =
      first_failure
        (List.concat_map
           (fun r ->
             let f = r.Mmb.Runner.fmmb in
             [
               (f.complete, "FMMB run incomplete");
               (f.mis_valid, "FMMB built an invalid MIS");
               (r.Mmb.Runner.duplicate_deliveries' = 0, "duplicate deliveries");
             ])
           results);
  }

(* One sample.  [observer] overrides the workload's own choice and
   [domains] (default 1) maps the mega partitions onto worker domains;
   the traced pass uses both to run the same instance other ways. *)
let run ?(probe = no_probe) ?observer ?(domains = 1) input =
  match input with
  | Serial { dual; assignment; seed; checked } ->
      let observer =
        match observer with
        | Some o -> o
        | None -> if checked then Spans_and_monitor else Unobserved
      in
      run_serial ~probe ~observer ~dual ~assignment ~seed
  | Mega { dual; assignment; seed } -> run_mega ~domains ~dual ~assignment ~seed
  | Fmmb { instances; seed } -> run_fmmb ~probe ~instances ~seed
