(* Experiment harness entry point.  `dune exec bench/main.exe` regenerates
   every table/figure of the paper (see DESIGN.md sections 5 and 11); pass
   experiment ids (e1..e16) to run a subset.

   Every invocation is a campaign (lib/exec): the requested experiments'
   cells are fanned across `--jobs N` domains (default 1; 0 means one per
   core, larger values are clamped to the core count), replayed from the
   content-addressed cache under _campaign/ when the binary and specs are
   unchanged, and stored there as they finish, so re-running an
   interrupted sweep runs only the missing cells.  Report text is captured
   per cell and replayed in cell order, so stdout is byte-identical for
   any N and any cache state; the campaign summary goes to stderr.
   `--trace-out FILE` writes the deterministic job timeline. *)

(* Host time for the campaign summary: monotonic seconds since program
   start.  Sys.time would be process CPU time, summed over every domain. *)
let wall_clock =
  let t0 = Monotonic_clock.now () in
  fun () -> Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

let order =
  [
    "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11";
    "e12"; "e13"; "e14"; "e15"; "e16";
  ]

let experiments : Exp.t list =
  let all =
    Exp_standard.experiments @ Exp_lower.experiments @ Exp_fmmb.experiments
    @ Exp_extensions.experiments @ Exp_radio.experiments
  in
  List.map
    (fun id ->
      match List.find_opt (fun e -> e.Exp.id = id) all with
      | Some e -> e
      | None -> invalid_arg ("experiment registry is missing " ^ id))
    order

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let usage =
  "usage: main.exe [--jobs N] [--trace-out FILE] [ID...]  (IDs e1..e16; \
   none means all)"

(* Tiny argv parser: [--jobs N | --trace-out FILE] may appear anywhere,
   [--help] prints the usage, any other token starting with '-' is an
   unknown option, and every remaining token is an experiment id.
   [--jobs] follows the CLI's shared convention (Exec.Pool.resolve_jobs). *)
let parse_args argv =
  let rec go jobs trace ids = function
    | [] -> (jobs, trace, List.rev ids)
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | [ "--jobs" ] -> usage_error "--jobs requires an integer argument"
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j -> go (Exec.Pool.resolve_jobs ~requested:j) trace ids rest
        | None -> usage_error "--jobs requires an integer argument")
    | [ "--trace-out" ] -> usage_error "--trace-out requires a FILE argument"
    | "--trace-out" :: file :: rest -> go jobs (Some file) ids rest
    | opt :: _ when String.starts_with ~prefix:"-" opt ->
        usage_error "unknown option: %s\n%s" opt usage
    | id :: rest -> go jobs trace (String.lowercase_ascii id :: ids) rest
  in
  go 1 None [] (List.tl (Array.to_list argv))

(* Every id must name an experiment before anything runs: a typo next to
   a valid id would otherwise drop that experiment silently. *)
let select = function
  | [] -> experiments
  | ids ->
      let find id = List.find_opt (fun e -> e.Exp.id = id) experiments in
      (match List.filter (fun id -> Option.is_none (find id)) ids with
      | [] -> ()
      | unknown ->
          usage_error "unknown experiment id%s: %s\nknown ids: %s"
            (if List.length unknown > 1 then "s" else "")
            (String.concat " " unknown) (String.concat " " order));
      List.filter_map find ids

(* The code-version salt: a digest of this very binary, so any rebuild
   invalidates every cached cell automatically. *)
let binary_salt () =
  try Digest.to_hex (Digest.file Sys.executable_name) with _ -> "unsalted"

let () =
  let jobs, trace_out, ids = parse_args Sys.argv in
  let requested = select ids in
  print_endline
    "Multi-Message Broadcast with Abstract MAC Layers — experiment harness";
  print_endline
    "(Ghaffari, Kantor, Lynch, Newport, PODC 2014; see EXPERIMENTS.md)";
  let cache = Exec.Cache.create ~dir:(Filename.concat "_campaign" "cache") in
  let outcomes, stats =
    Exec.Campaign.run ~jobs ~salt:(binary_salt ()) ~cache ~clock:wall_clock
      (List.concat_map (fun e -> e.Exp.cells) requested)
  in
  (* Deterministic merge: replay each experiment's captured cell output in
     cell order, then render its tables. *)
  ignore
    (List.fold_left
       (fun first e ->
         let mine = Array.sub outcomes first (List.length e.Exp.cells) in
         Array.iter (fun o -> Exec.Sink.emit o.Exec.Campaign.output) mine;
         e.Exp.render
           (Array.to_list (Array.map (fun o -> o.Exec.Campaign.result) mine));
         first + Array.length mine)
       0 requested);
  Option.iter
    (fun path ->
      Obs.Tracing.write_file
        ~meta:[ ("campaign", Dsim.Json.String "virtual") ]
        (Exec.Telemetry.virtual_trace outcomes)
        ~path;
      Printf.printf "campaign trace written to %s (load at ui.perfetto.dev)\n"
        path)
    trace_out;
  prerr_endline (Exec.Telemetry.summary ~jobs stats)
