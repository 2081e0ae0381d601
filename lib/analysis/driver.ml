(* The parsetree driver: parse one file (implementation or interface, by
   extension), run every applicable rule over it, apply both escape
   hatches, and optionally surface stale suppressions. *)

type parsed =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature

let read_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let owns ids id =
  String.length id > 0
  && List.exists (fun r -> String.length r > 0 && r.[0] = id.[0]) ids

(* Run [rules] over [source] posed at path [file], consulting (and
   hit-counting) [sup] and [allow].  The suppression scan is the
   caller's so it can ask for stale entries afterwards. *)
let run_parsed ~rules ~allow ~sup ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  let parsed =
    try
      Some
        (if Filename.check_suffix file ".mli" then
           Intf (Parse.interface lexbuf)
         else Impl (Parse.implementation lexbuf))
    with _ -> None
  in
  match parsed with
  | None -> [ Finding.parse_error ~file ]
  | Some ast ->
      let findings = ref [] in
      List.iter
        (fun (r : Rule.t) ->
          if r.applies file then begin
            let report ~loc msg =
              let pos = loc.Location.loc_start in
              let line = pos.Lexing.pos_lnum in
              let col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol in
              if
                (not (Suppress.suppressed sup ~rule:r.id ~line))
                && not (Allow.allowed allow ~rule:r.id ~file)
              then
                findings :=
                  { Finding.file; line; col; rule = r.id; msg } :: !findings
            in
            let it = r.build ~file report in
            match ast with
            | Impl str -> it.Ast_iterator.structure it str
            | Intf sg -> it.Ast_iterator.signature it sg
          end)
        rules;
      List.sort_uniq Finding.compare !findings

let run_source ~rules ?(allow = Allow.empty) ~file source =
  run_parsed ~rules ~allow ~sup:(Suppress.scan source) ~file source

let run_files ~rules ?(allow = Allow.empty) ?(stale = false) files =
  let owns = owns (List.map (fun (r : Rule.t) -> r.id) rules) in
  let per_file =
    List.concat_map
      (fun file ->
        let source = read_file file in
        let sup = Suppress.scan source in
        let fs = run_parsed ~rules ~allow ~sup ~file source in
        if stale then fs @ Suppress.stale ~owns sup ~file else fs)
      files
  in
  let all = if stale then per_file @ Allow.stale ~owns allow else per_file in
  List.sort Finding.compare all
