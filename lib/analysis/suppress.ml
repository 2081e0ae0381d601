(* In-source suppression comments.  A comment containing the marker
   followed by rule ids suppresses those rules on its own line and the
   line directly below.  One marker serves every rule family: ids are
   unique across families, so a hatch can only silence the rule it
   names.

   Hits are counted per id: an id that suppresses nothing is itself
   reported (rule S1), keeping the escape hatch honest.  Which family
   reports it is the caller's [owns] predicate. *)

type entry = {
  s_line : int;  (* 1-based line of the comment *)
  s_ids : string list;
  mutable s_hit : string list;  (* ids that suppressed something *)
}

type t = entry list

(* Kept out of doc comments so the scan never mistakes prose for a
   hatch. *)
let marker = "analysis: allow"

let is_rule_id tok =
  String.length tok >= 2
  && tok.[0] >= 'A'
  && tok.[0] <= 'Z'
  && String.for_all
       (fun c -> c >= '0' && c <= '9')
       (String.sub tok 1 (String.length tok - 1))

let scan source : t =
  let mlen = String.length marker in
  String.split_on_char '\n' source
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (ln, line) ->
         match Paths.find_substring ~sub:marker line with
         | None -> None
         | Some i ->
             let rest =
               String.sub line (i + mlen) (String.length line - i - mlen)
             in
             let rest =
               match Paths.find_substring ~sub:"*)" rest with
               | Some j -> String.sub rest 0 j
               | None -> rest
             in
             let ids =
               String.split_on_char ' ' rest
               |> List.map String.trim
               |> List.filter is_rule_id
             in
             if ids = [] then None
             else Some { s_line = ln; s_ids = ids; s_hit = [] })

let entries t = List.map (fun e -> (e.s_line, e.s_ids)) t

let suppressed t ~rule ~line =
  List.fold_left
    (fun hit e ->
      if
        (e.s_line = line || e.s_line = line - 1)
        && List.exists (String.equal rule) e.s_ids
      then begin
        if not (List.mem rule e.s_hit) then e.s_hit <- rule :: e.s_hit;
        true
      end
      else hit)
    false t

let stale ~owns t ~file =
  List.filter_map
    (fun e ->
      match
        List.filter (fun id -> owns id && not (List.mem id e.s_hit)) e.s_ids
      with
      | [] -> None
      | dead ->
          Some
            {
              Finding.file;
              line = e.s_line;
              col = 0;
              rule = "S1";
              msg =
                Printf.sprintf
                  "stale suppression comment (%s): it suppresses no finding; \
                   delete it"
                  (String.concat " " dead);
            })
    t
