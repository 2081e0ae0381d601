(* Finding output: the classic file:line:col text stream, or a single
   machine-readable JSON object for editor/CI integration.  The JSON is
   hand-rolled (the analyzers depend only on compiler-libs, not on the
   simulation's Dsim.Json). *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let finding_json (f : Finding.t) =
  Printf.sprintf
    {|{"rule":"%s","file":"%s","line":%d,"col":%d,"msg":"%s"}|}
    (json_escape f.rule) (json_escape f.file) f.line f.col (json_escape f.msg)

(* Every rule family (lint, check, race, hot) emits this one shared
   envelope, so CI consumers parse a single shape regardless of family.
   Bump [version] only when a field changes meaning or disappears;
   additions are compatible. *)
let schema = "mmb-analysis/1"
let version = 1

let skip_json (file, reason) =
  Printf.sprintf {|{"file":"%s","reason":"%s"}|} (json_escape file)
    (json_escape reason)

let to_json ?(skips = []) ~tool ~files findings =
  Printf.sprintf
    {|{"schema":"%s","tool":"%s","version":%d,"files":%d,"skips":[%s],"findings":[%s]}|}
    schema (json_escape tool) version files
    (String.concat "," (List.map skip_json skips))
    (String.concat "," (List.map finding_json findings))

(* 0 clean / 1 findings / 2 infrastructure failure (unparseable file). *)
let exit_code findings =
  if List.exists Finding.is_error findings then 2
  else if findings <> [] then 1
  else 0

let print ?(skips = []) ~json ~tool ~files findings =
  if json then print_endline (to_json ~skips ~tool ~files findings)
  else begin
    (* Skips are diagnostics on stderr: visible, but neither findings
       nor part of the parseable stdout stream. *)
    List.iter
      (fun (file, reason) ->
        Printf.eprintf "%s: SKIP %s: %s\n" tool file reason)
      skips;
    List.iter (fun f -> print_endline (Finding.to_string f)) findings;
    match findings with
    | [] -> Printf.printf "%s: %d files clean\n" tool files
    | fs ->
        Printf.eprintf "%s: %d finding(s) in %d files\n" tool (List.length fs)
          files
  end
