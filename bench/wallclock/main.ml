(* The wall-clock benchmark (README.md).

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
         one workload in this process; the last stdout line is its result
     main.exe [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
         every workload, each in its own child process, one after another
     main.exe --compare A.json B.json
         verdicts of B against A under BENCHMARK.json's bounds

   Exit codes: 0 ok, 1 a run was incorrect or a comparison regressed,
   2 bad arguments or unreadable input. *)

open Wallclock

let usage =
  "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
   [--smoke] [--out FILE]\n\
  \       main.exe --compare A.json B.json"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("wallclock: " ^ msg);
      exit 2)
    fmt

let trace_dir = Filename.concat "bench" (Filename.concat "wallclock" "_traces")

let doc ~seed ~seconds workloads =
  {
    Report.seed;
    seconds;
    host_cores = Exec.Pool.available_parallelism ();
    ocaml_version = Sys.ocaml_version;
    workloads;
  }

(* One workload in this process.  Prints its table, its result document
   on one line, and the result line last. *)
let single ~workload ~seed ~seconds ~trace ~smoke =
  let m = Measure.run ~smoke ~seed ~seconds workload in
  let layers, unresolved, m =
    if trace then Layers.measure m else ([], [], m)
  in
  let m =
    if not trace then m
    else
      let path =
        Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" workload seed)
      in
      let written =
        try
          if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
          Report.write_trace ~path m
        with Sys_error e -> Error e
      in
      match written with
      | Ok spans ->
          Printf.printf "trace: %s (%d spans)\n" path spans;
          m
      | Error e ->
          { m with Measure.failures = m.Measure.failures @ [ "trace: " ^ e ] }
  in
  List.iter (fun why -> Printf.printf "FAILED: %s\n" why) m.Measure.failures;
  let w = Report.of_measure ~layers ~unresolved m in
  Report.print_table w;
  let line j = print_endline (Dsim.Json.to_string j) in
  line (Report.doc_to_json (doc ~seed ~seconds [ w ]));
  line (Report.result_line ~traced:trace w);
  exit (if w.Report.correct then 0 else 1)

(* Every workload, each in a child process running [single]; the child's
   second-to-last line is its result document. *)
let all ~seed ~seconds ~trace ~smoke ~out =
  let child workload =
    let args =
      [
        Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
        "--seconds"; Printf.sprintf "%g" seconds;
        "--trace"; (if trace then "1" else "0");
      ]
      @ if smoke then [ "--smoke" ] else []
    in
    let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
    let rec read acc =
      match input_line ic with
      | line -> read (line :: acc)
      | exception End_of_file -> acc
    in
    let lines = read [] in
    ignore (Unix.close_process_in ic);
    match lines with
    | _result :: detail :: table ->
        List.iter print_endline (List.rev table);
        Result.bind (Dsim.Json.parse detail) Report.doc_of_json
        |> Result.map (fun d -> d.Report.workloads)
    | _ -> Error "no result"
  in
  let workloads =
    List.concat_map
      (fun w ->
        match child w with
        | Ok ws -> ws
        | Error e ->
            Printf.printf "%s: child process failed: %s\n" w e;
            [])
      Workloads.names
  in
  let d = doc ~seed ~seconds workloads in
  Option.iter
    (fun path ->
      Report.write_file path (Dsim.Json.to_string (Report.doc_to_json d) ^ "\n");
      Printf.printf "results: %s\n" path)
    out;
  let ok =
    List.length workloads = List.length Workloads.names
    && List.for_all (fun w -> w.Report.correct) workloads
  in
  exit (if ok then 0 else 1)

let compare a b =
  let load path =
    match Report.load_doc path with Ok d -> d | Error e -> die "%s" e
  in
  let bounds =
    match Verdict.load_bounds "BENCHMARK.json" with
    | Ok b -> b
    | Error e -> die "%s" e
  in
  let rows = Verdict.rows ~bounds (load a) (load b) in
  Verdict.print_rows rows;
  let regressed = List.exists (fun r -> Verdict.fails r.Verdict.verdict) rows in
  exit (if regressed then 1 else 0)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let trace = ref false and smoke = ref false and out = ref None in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s: not an integer: %s" flag v
  in
  let rec parse = function
    | [] -> ()
    | [ "--compare"; a; b ] -> compare a b
    | "--workload" :: w :: rest ->
        if not (List.mem w Workloads.names) then
          die "unknown workload %s (one of %s)" w
            (String.concat ", " Workloads.names);
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_arg "--seed" n;
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x >= 0. -> seconds := x
        | _ -> die "--seconds: not a non-negative number: %s" s);
        parse rest
    | "--trace" :: t :: rest ->
        (match t with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die "--trace takes 0 or 1, not %s" t);
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | arg :: _ -> die "unexpected argument %s\n%s" arg usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed and seconds = !seconds and trace = !trace and smoke = !smoke in
  match !workload with
  | Some workload -> single ~workload ~seed ~seconds ~trace ~smoke
  | None -> all ~seed ~seconds ~trace ~smoke ~out:!out
