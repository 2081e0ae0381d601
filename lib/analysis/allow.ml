(* Allowlists: out-of-band suppression of whole (rule, file) pairs, for
   files whose entire job is the flagged construct.  Entries count their
   hits so a run can report entries that no longer suppress anything
   (stale entries rot allowlists into folklore — rule S2 flushes them). *)

type entry = {
  a_rule : string;
  a_suffix : string;
  a_src : string;  (* file the entry came from, for stale reporting *)
  a_line : int;
  mutable a_hits : int;
}

type t = entry list

let empty = []

(* One entry per line: [RULE path/suffix.ml].  Blank lines and lines
   starting with [#] are ignored. *)
let parse ?(src = "<allow>") text : t =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (ln, line) ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i ->
               let rule = String.sub line 0 i in
               let path =
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1))
               in
               if path = "" then None
               else
                 Some
                   {
                     a_rule = rule;
                     a_suffix = path;
                     a_src = src;
                     a_line = ln;
                     a_hits = 0;
                   })

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse ~src:path (really_input_string ic (in_channel_length ic)))

let merge = ( @ )

let allowed t ~rule ~file =
  List.fold_left
    (fun hit e ->
      if String.equal e.a_rule rule && Paths.has_suffix ~suffix:e.a_suffix file
      then begin
        e.a_hits <- e.a_hits + 1;
        true
      end
      else hit)
    false t

let stale ~owns t =
  List.filter_map
    (fun e ->
      if e.a_hits > 0 || not (owns e.a_rule) then None
      else
        Some
          {
            Finding.file = e.a_src;
            line = e.a_line;
            col = 0;
            rule = "S2";
            msg =
              Printf.sprintf
                "stale allowlist entry \"%s %s\": it suppresses no finding; \
                 delete it"
                e.a_rule e.a_suffix;
          })
    t
