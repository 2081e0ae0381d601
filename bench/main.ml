(* Experiment harness entry point.  `dune exec bench/main.exe` regenerates
   every table/figure of the paper (see DESIGN.md sections 5 and 11); pass
   experiment ids (e1..e16, b1) to run a subset.  Each experiment appends
   one engine-counter delta line (Obs.Global) to a metrics sidecar JSONL,
   `bench-metrics.jsonl` by default (override with --metrics-out FILE,
   disable with --no-metrics).

   With `--jobs N` the harness becomes a campaign: every requested
   experiment's cells are fanned across N domains, served from the
   content-addressed cache under _campaign/ when the binary and specs are
   unchanged, and checkpointed so an interrupted sweep resumes.  Report
   text is captured per cell and replayed in cell order, so stdout is
   byte-identical for any N; cache/resume statistics go to stderr. *)

(* Host time for the sidecar's wall_s and the campaign summary: monotonic
   seconds since program start.  Sys.time would be process CPU time,
   summed over every domain. *)
let wall_clock =
  let t0 = Monotonic_clock.now () in
  fun () -> Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

let order =
  [
    "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11";
    "e12"; "e13"; "e14"; "e15"; "e16"; "b1";
  ]

let groups : (string * Exp.t) list =
  let all =
    Exp_standard.experiments @ Exp_lower.experiments @ Exp_fmmb.experiments
    @ Exp_extensions.experiments @ Exp_radio.experiments
    @ Exp_micro.experiments
  in
  List.map
    (fun id ->
      match List.find_opt (fun e -> e.Exp.id = id) all with
      | Some e -> (id, e)
      | None -> invalid_arg ("experiment registry is missing " ^ id))
    order

(* Tiny argv parser: [--metrics-out FILE | --no-metrics | --jobs N |
   --trace-out FILE] may appear anywhere; every other token is an
   experiment id. *)
let parse_args argv =
  let rec go metrics jobs trace ids = function
    | [] -> (metrics, jobs, trace, List.rev ids)
    | "--no-metrics" :: rest -> go None jobs trace ids rest
    | [ "--metrics-out" ] ->
        prerr_endline "--metrics-out requires a FILE argument";
        exit 2
    | "--metrics-out" :: file :: rest -> go (Some file) jobs trace ids rest
    | [ "--trace-out" ] ->
        prerr_endline "--trace-out requires a FILE argument";
        exit 2
    | "--trace-out" :: file :: rest -> go metrics jobs (Some file) ids rest
    | [ "--jobs" ] ->
        prerr_endline "--jobs requires a positive integer argument";
        exit 2
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> go metrics (Some j) trace ids rest
        | _ ->
            prerr_endline "--jobs requires a positive integer argument";
            exit 2)
    | id :: rest -> go metrics jobs trace (id :: ids) rest
  in
  go (Some "bench-metrics.jsonl") None None [] (List.tl (Array.to_list argv))

let sidecar_line sidecar ~label ~wall_s delta =
  Option.iter
    (fun oc ->
      output_string oc
        (Dsim.Json.to_string (Obs.Global.to_json ~label ~wall_s delta));
      output_char oc '\n';
      flush oc)
    sidecar

(* --- Legacy serial path -------------------------------------------------- *)

let run_serial sidecar requested =
  List.iter
    (fun (id, e) ->
      let before = Obs.Global.snapshot () in
      let t0 = wall_clock () in
      let results = List.map (fun c -> c.Exec.Job.run ()) e.Exp.cells in
      e.Exp.render results;
      let wall_s = wall_clock () -. t0 in
      let after = Obs.Global.snapshot () in
      sidecar_line sidecar ~label:id ~wall_s (Obs.Global.diff ~before ~after))
    requested

(* --- Campaign path (--jobs N) -------------------------------------------- *)

(* The code-version salt: a digest of this very binary, so any rebuild
   invalidates every cached cell automatically. *)
let binary_salt () =
  try Digest.to_hex (Digest.file Sys.executable_name) with _ -> "unsalted"

let campaign_dir = "_campaign"

let run_campaign sidecar trace_out requested jobs =
  (* Domains beyond the core count only add multicore-GC overhead; the
     deterministic merge makes the clamp invisible in the output. *)
  let jobs = min jobs (Exec.Pool.available_parallelism ()) in
  let salt = binary_salt () in
  let cache = Exec.Cache.create ~dir:(Filename.concat campaign_dir "cache") in
  let manifest =
    (* One checkpoint per (binary, experiment subset): re-running the same
       command after a kill resumes; a different subset starts cleanly. *)
    let key =
      Digest.to_hex
        (Digest.string (salt ^ "|" ^ String.concat "," (List.map fst requested)))
    in
    Filename.concat campaign_dir (Printf.sprintf "bench-%s.jsonl" key)
  in
  let cells = List.concat_map (fun (_, e) -> e.Exp.cells) requested in
  let outcomes, stats =
    Exec.Campaign.run ~jobs ~salt ~cache ~manifest ~clock:wall_clock cells
  in
  (* Deterministic merge: replay each experiment's captured cell output in
     cell order, then render its tables, exactly as the serial path would
     have interleaved them. *)
  let cursor = ref 0 in
  List.iter
    (fun (id, e) ->
      let k = List.length e.Exp.cells in
      let mine = Array.sub outcomes !cursor k in
      cursor := !cursor + k;
      Array.iter (fun o -> Exec.Sink.emit o.Exec.Campaign.output) mine;
      let before = Obs.Global.snapshot () in
      let t0 = wall_clock () in
      e.Exp.render
        (Array.to_list (Array.map (fun o -> o.Exec.Campaign.result) mine));
      let render_wall = wall_clock () -. t0 in
      let render_delta =
        Obs.Global.diff ~before ~after:(Obs.Global.snapshot ())
      in
      (* Exactly one engine line per experiment: the cells' per-worker
         deltas (merged in index order) plus whatever the render step ran
         on the main domain (only b1 does). *)
      let delta =
        Obs.Global.add (Exec.Campaign.merged_engine mine) render_delta
      in
      let wall_s = Exec.Campaign.total_wall mine +. render_wall in
      sidecar_line sidecar ~label:id ~wall_s delta)
    requested;
  Option.iter
    (fun path ->
      Obs.Tracing.write_file
        ~meta:[ ("campaign", Dsim.Json.String "virtual") ]
        (Exec.Telemetry.virtual_trace outcomes)
        ~path;
      Printf.printf "campaign trace written to %s (load at ui.perfetto.dev)\n"
        path)
    trace_out;
  (* Cache traffic and pool busy time reach the summary through
     Obs.Global (Campaign.run notes them via note_exec); stats carries
     the same figures. *)
  Printf.eprintf "%s\n" (Exec.Telemetry.summary ~jobs stats)

(* --- Entry point ---------------------------------------------------------- *)

let () =
  let metrics_out, jobs, trace_out, requested_ids = parse_args Sys.argv in
  (match (jobs, trace_out) with
  | None, Some _ ->
      prerr_endline "--trace-out requires the campaign path (--jobs N)";
      exit 2
  | _ -> ());
  let requested_ids =
    match requested_ids with [] -> List.map fst groups | ids -> ids
  in
  let requested =
    List.filter_map
      (fun id ->
        let id = String.lowercase_ascii id in
        match List.assoc_opt id groups with
        | Some e -> Some (id, e)
        | None ->
            Printf.eprintf "unknown experiment id: %s\n" id;
            None)
      requested_ids
  in
  let sidecar = Option.map open_out metrics_out in
  print_endline
    "Multi-Message Broadcast with Abstract MAC Layers — experiment harness";
  print_endline
    "(Ghaffari, Kantor, Lynch, Newport, PODC 2014; see EXPERIMENTS.md)";
  (match jobs with
  | None -> run_serial sidecar requested
  | Some j -> run_campaign sidecar trace_out requested j);
  Option.iter
    (fun oc ->
      close_out oc;
      Printf.printf "engine metrics sidecar: %s\n"
        (Option.value metrics_out ~default:"bench-metrics.jsonl"))
    sidecar
