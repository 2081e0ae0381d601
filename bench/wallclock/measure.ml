(* One workload, end to end.  Samples run in a closed loop with one
   client (a sample starts when the previous one has finished) until
   [seconds] have passed and at least [min_samples] were taken, after one
   warm-up sample whose event count and deterministic counters every
   sample must repeat exactly.

   Each sample, the warm-up included, first builds its instance afresh
   from the seed, [min_builds] times or more, then runs the last build.
   Set-up time is so sampled all through the run, as run time is: a
   slow second of the host reaches a few builds, not all of them.

   The host's speed drifts by 1.5x and more over minutes, more than any
   bound worth keeping.  So each measured sample also times the
   yardstick (Clock.reference_work) just before its run, and its times
   are reported in seconds of a host on which the yardstick takes
   [nominal_ref_s] (README.md, "Noise"). *)

let min_samples = 5
let min_builds = 3
let max_builds = 20

(* A sample keeps building until its builds took this long, so a
   millisecond set-up still gets a median over many builds. *)
let min_build_s = 0.02

(* Spans are kept in memory and written at exit (Report.write_trace).
   Each sample — the warm-up, one measured sample, the traced pass —
   has an id that its builds, their steps and its run share. *)
type span = { name : string; sample : int; t0 : float; t1 : float }

(* One measured sample; times are wall seconds. *)
type sample = {
  builds : float list;  (** each build's set-up time *)
  ref_s : float;  (** the yardstick, timed just before the run *)
  run_s : float;
  words : float;  (** minor words of the run *)
}

type t = {
  workload : string;
  input : Workloads.input;  (** the last sample's build *)
  events : int;
  counters : (string * float) list;
  attempted : int;
  failures : string list;
  samples : sample list;
  peak_rss_mb : float;  (** after the warm-up *)
  spans : span list;  (** newest first *)
}

(* A phase runner recording each step it runs as a span of [sample]. *)
let recorder spans ~sample =
  {
    Workloads.run =
      (fun name f ->
        let t0 = Clock.now () in
        let r = f () in
        spans := { name; sample; t0; t1 = Clock.now () } :: !spans;
        r);
  }

(* Durations of the spans called [name], oldest first. *)
let durations spans name =
  List.rev spans
  |> List.filter_map (fun s ->
         if String.equal s.name name then Some (s.t1 -. s.t0) else None)

let check ~(reference : Workloads.outcome) (o : Workloads.outcome) =
  match o.Workloads.failure with
  | Some why -> Some why
  | None ->
      if o.Workloads.events <> reference.Workloads.events then
        Some
          (Printf.sprintf "event count changed between samples (%d vs %d)"
             o.Workloads.events reference.Workloads.events)
      else if o.Workloads.counters <> reference.Workloads.counters then
        Some "deterministic counters changed between samples"
      else None

(* Seconds of one yardstick, from a freshly collected heap. *)
let reference (phase : Workloads.phase) =
  Gc.full_major ();
  snd (phase.Workloads.run "reference" (fun () -> Clock.time Clock.reference_work))

let run ~smoke ~seed ~seconds workload =
  let spans = ref [] in
  let next = ref 0 in
  let phase () =
    let p = recorder spans ~sample:!next in
    incr next;
    p
  in
  (* A sample's builds: the last one and the time of each. *)
  let builds phase =
    let rec build times =
      (* Collect the previous build first, so the heap holds one
         instance at a time. *)
      Gc.full_major ();
      let input, t =
        Clock.time (fun () ->
            phase.Workloads.run "setup" (fun () ->
                Workloads.build ~phase ~smoke ~seed workload))
      in
      let times = t :: times and spent = List.fold_left ( +. ) t times in
      let count = List.length times in
      if count >= max_builds || (count >= min_builds && spent >= min_build_s)
      then (input, List.rev times)
      else build times
    in
    build []
  in
  (* The run as a span called [name]: its outcome, wall seconds and
     minor words. *)
  let run_once phase name input =
    let w0 = Clock.minor_words () in
    let o, t =
      phase.Workloads.run name (fun () ->
          Clock.time (fun () -> Workloads.run input))
    in
    (o, t, Clock.minor_words () -. w0)
  in
  (* The warm-up has no yardstick, so the process's peak memory read
     after it is that of the workload alone. *)
  let warmup = phase () in
  let reference_outcome, _, _ =
    run_once warmup "warmup" (fst (builds warmup))
  in
  let peak_rss_mb = Clock.peak_rss_mb () in
  let failures = ref (Option.to_list reference_outcome.Workloads.failure) in
  let deadline = Clock.now () +. seconds in
  let rec loop taken acc =
    let phase = phase () in
    let input, times = builds phase in
    let ref_s = reference phase in
    Gc.full_major ();
    let o, run_s, words = run_once phase "run" input in
    let acc = { builds = times; ref_s; run_s; words } :: acc in
    Option.iter
      (fun why -> failures := why :: !failures)
      (check ~reference:reference_outcome o);
    if taken + 1 >= min_samples && Clock.now () >= deadline then
      (input, List.rev acc)
    else loop (taken + 1) acc
  in
  let input, measured = loop 0 [] in
  {
    workload;
    input;
    events = reference_outcome.Workloads.events;
    counters = reference_outcome.Workloads.counters;
    attempted = 1 + List.length measured;
    failures = List.rev !failures;
    samples = measured;
    peak_rss_mb;
    spans = !spans;
  }

(* --- End-to-end metrics ---------------------------------------------------- *)

(* The yardstick's time on a quiet host of the kind this benchmark was
   written on (README.md).  A wall time t measured next to a yardstick
   of y seconds is reported as t * nominal_ref_s / y. *)
let nominal_ref_s = 0.04

let nominal s t = t *. nominal_ref_s /. s.ref_s

(* The median over [m]'s samples of a wall-clock field, unscaled. *)
let wall m f = Stats.median (List.concat_map f m.samples)

let end_to_end m =
  let ev = float_of_int m.events in
  let run = List.map (fun s -> nominal s s.run_s) m.samples in
  [
    ( "setup_s",
      "s",
      Stats.summarize
        (List.concat_map (fun s -> List.map (nominal s) s.builds) m.samples) );
    ("run_s", "s", Stats.summarize run);
    ("events_per_s", "1/s", Stats.summarize (List.map (fun t -> ev /. t) run));
    ( "alloc_words_per_event",
      "words",
      Stats.summarize (List.map (fun s -> s.words /. ev) m.samples) );
    ("peak_rss_mb", "MiB", Stats.summarize [ m.peak_rss_mb ]);
  ]
