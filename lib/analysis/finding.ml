(* A single analyzer finding, the currency of every rule family. *)

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let to_string f =
  Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col f.rule f.msg

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let parse_error ~file =
  {
    file;
    line = 1;
    col = 0;
    rule = "E0";
    msg = "source does not parse; fix the syntax error first";
  }

(* E-rules are infrastructure failures (unparseable input), not code
   findings; the CLI maps them to exit code 2 rather than 1. *)
let is_error f = String.length f.rule > 0 && f.rule.[0] = 'E'
