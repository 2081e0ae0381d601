(* The analyzer command line:

     mmb_analyze FAMILY [--allow FILE] [--json] [--rules] [--no-stale] PATH...
     mmb_analyze FAMILY --inventory PATH...

   FAMILY is one of the rule families (lint, check, race, hot).  Each
   PATH is a source file or a directory walked recursively (skipping
   _build and dot-directories); a PATH that contributes no source file
   is an error, so a gate pointed at the wrong directory cannot pass by
   scanning nothing.  Exit code: 0 clean, 1 findings, 2 usage error or
   unparseable file.  --inventory prints the family's inventory view
   (what its rules range over) and exits 0; it is accepted in any
   argument position. *)

type family = {
  name : string;
  exts : string list;  (* extensions collected from directories *)
  rules_doc : (string * string) list;  (* id, one-line doc *)
  run :
    allow:Allow.t ->
    stale:bool ->
    string list ->
    Finding.t list * (string * string) list;
      (* findings, plus (file, reason) skip diagnostics *)
  inventory : string list -> unit;  (* print the --inventory view *)
}

let rec collect ~exts acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare (* readdir order is unspecified *)
    |> List.filter (fun name ->
           name <> "_build" && not (String.starts_with ~prefix:"." name))
    |> List.fold_left
         (fun acc name -> collect ~exts acc (Filename.concat path name))
         acc
  else if List.exists (fun ext -> Filename.check_suffix path ext) exts then
    path :: acc
  else acc

let collect_files ~exts paths =
  List.fold_left (collect ~exts) [] paths |> List.sort String.compare

let usage families =
  Printf.sprintf
    "usage: mmb_analyze {%s} [--allow FILE] [--json] [--rules] [--no-stale] \
     [--inventory] PATH..."
    (String.concat "|" (List.map (fun f -> f.name) families))

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "mmb_analyze: %s\n" msg;
      exit 2)
    fmt

let run_family ~usage fam args =
  let tool = "mmb_analyze " ^ fam.name in
  let allow = ref Allow.empty in
  let json = ref false in
  let stale = ref true in
  let inventory = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--allow" :: file :: rest ->
        allow := Allow.merge !allow (Allow.load file);
        parse rest
    | [ "--allow" ] -> fail "--allow needs a file argument"
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--no-stale" :: rest ->
        stale := false;
        parse rest
    | "--inventory" :: rest ->
        inventory := true;
        parse rest
    | "--rules" :: _ ->
        List.iter
          (fun (id, doc) -> Printf.printf "%-4s %s\n" id doc)
          fam.rules_doc;
        exit 0
    | ("--help" | "-help") :: _ ->
        print_endline usage;
        exit 0
    | opt :: _ when String.starts_with ~prefix:"-" opt ->
        fail "unknown option %s\n%s" opt usage
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  (try parse args with Sys_error e -> fail "%s" e);
  if !paths = [] then fail "no PATH given\n%s" usage;
  let files =
    List.rev !paths
    |> List.concat_map (fun path ->
           match collect ~exts:fam.exts [] path with
           | [] -> fail "%s: no %s files" path (String.concat "/" fam.exts)
           | files -> files
           | exception Sys_error e -> fail "%s" e)
    |> List.sort String.compare
  in
  if !inventory then begin
    (try fam.inventory files with Sys_error e -> fail "%s" e);
    exit 0
  end;
  let findings, skips =
    try fam.run ~allow:!allow ~stale:!stale files
    with Sys_error e -> fail "%s" e
  in
  Report.print ~skips ~json:!json ~tool ~files:(List.length files) findings;
  exit (Report.exit_code findings)

let main families =
  let usage = usage families in
  match List.tl (Array.to_list Sys.argv) with
  | ("--help" | "-help") :: _ ->
      print_endline usage;
      exit 0
  | name :: args -> (
      match List.find_opt (fun f -> String.equal f.name name) families with
      | Some fam -> run_family ~usage fam args
      | None -> fail "unknown rule family %S\n%s" name usage)
  | [] -> fail "no rule family given\n%s" usage
