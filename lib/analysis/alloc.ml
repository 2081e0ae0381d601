(* Per-function allocation classification over the hot set — the map
   behind `mmb_analyze hot --inventory` — and the allocation-shape
   helpers it shares with rule H2.  For every top-level function of a hot
   module, count the allocating shapes in its body: closures, tuples,
   records, non-constant variant constructions, arrays, list conses,
   boxed-float lets — and the [@mmb.alloc_ok] hatches that justify some
   of them.  "zero-alloc" functions are the ones a per-event path may
   call freely; everything else is either init-phase or a fix/hatch
   candidate. *)

open Typedtree
module T = Typed

let is_float env ty =
  match Types.get_desc (T.expand env ty) with
  | Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let constr_is env ty names =
  match Types.get_desc (T.expand env ty) with
  | Tconstr (p, args, _) when List.mem (Path.name p) names -> Some args
  | _ -> None

let boxed_float_container env ty =
  let float_arg names =
    match constr_is env ty names with
    | Some [ a ] when is_float env a -> true
    | _ -> false
  in
  if float_arg [ "option"; "Stdlib.option" ] then Some "float option"
  else if float_arg [ "ref"; "Stdlib.ref" ] then Some "float ref"
  else if float_arg [ "list"; "Stdlib.list" ] then Some "float list"
  else
    match Types.get_desc (T.expand env ty) with
    | Ttuple comps when List.exists (is_float env) comps ->
        Some "tuple with a float component"
    | _ -> None

(* Visit a function's cases, flattening directly-curried parameters into
   the same function: [fun a b -> e] enters once, with [body] called on
   [e] only. *)
let rec visit_cases (sub : Tast_iterator.iterator) cases body =
  List.iter
    (fun c ->
      sub.pat sub c.c_lhs;
      Option.iter (sub.expr sub) c.c_guard;
      match c.c_rhs.exp_desc with
      | Texp_function f when c.c_rhs.exp_attributes = [] ->
          visit_cases sub f.cases body
      | _ -> body c.c_rhs)
    cases

type counts = {
  mutable closures : int;
  mutable tuples : int;
  mutable records : int;
  mutable variants : int;
  mutable arrays : int;
  mutable conses : int;
  mutable boxed_floats : int;
  mutable hatched : int;
}

type func = {
  f_name : string;
  f_line : int;
  f_counts : counts;
}

type file_entry = {
  e_file : string;
  e_hot : [ `Path | `Attribute ];
  e_funcs : func list;
}

let fresh () =
  {
    closures = 0;
    tuples = 0;
    records = 0;
    variants = 0;
    arrays = 0;
    conses = 0;
    boxed_floats = 0;
    hatched = 0;
  }

let zero_alloc c =
  c.closures = 0 && c.tuples = 0 && c.records = 0 && c.variants = 0
  && c.arrays = 0 && c.conses = 0 && c.boxed_floats = 0

let counts_to_string c =
  if zero_alloc c && c.hatched = 0 then "zero-alloc"
  else
    Printf.sprintf
      "allocs[closures=%d tuples=%d records=%d variants=%d arrays=%d \
       conses=%d boxed-floats=%d hatched=%d]"
      c.closures c.tuples c.records c.variants c.arrays c.conses
      c.boxed_floats c.hatched

(* Count allocating shapes under [body].  Curried parameter chains are
   not closures; a [fun] anywhere else in the body is. *)
let count_body (c : counts) body =
  let rec expr sub (e : expression) =
    if T.alloc_ok e then c.hatched <- c.hatched + 1
    else begin
      (match e.exp_desc with
      | Texp_function _ -> c.closures <- c.closures + 1
      | Texp_tuple _ -> c.tuples <- c.tuples + 1
      | Texp_record _ -> c.records <- c.records + 1
      | Texp_construct (_, cd, args) ->
          if args <> [] then
            if String.equal cd.cstr_name "::" then c.conses <- c.conses + 1
            else c.variants <- c.variants + 1
      | Texp_array _ -> c.arrays <- c.arrays + 1
      | Texp_let (_, vbs, _) ->
          List.iter
            (fun vb ->
              let env = T.env_of vb.vb_expr in
              match boxed_float_container env vb.vb_expr.exp_type with
              | Some _ -> c.boxed_floats <- c.boxed_floats + 1
              | None -> ())
            vbs
      | _ -> ());
      match e.exp_desc with
      | Texp_function f ->
          (* the curry chain below this point is the same function *)
          visit_cases sub f.cases (fun b -> expr sub b)
      | _ -> Tast_iterator.default_iterator.expr sub e
    end
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body

let funcs_of_structure (str : structure) =
  List.concat_map
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
              | Tpat_var (id, _), Texp_function f ->
                  let c = fresh () in
                  visit_cases
                    { Tast_iterator.default_iterator with
                      expr = (fun sub e ->
                        Tast_iterator.default_iterator.expr sub e);
                    }
                    f.cases
                    (fun body -> count_body c body);
                  Some
                    {
                      f_name = Ident.name id;
                      f_line = vb.vb_loc.loc_start.pos_lnum;
                      f_counts = c;
                    }
              | _ -> None)
            vbs
      | _ -> [])
    str.str_items

let of_trees trees files =
  List.filter_map
    (fun file ->
      match T.tree_for trees file with
      | None -> None
      | Some t ->
          let hot_path = T.path_hot file in
          let hot_attr = T.marked_hot t.t_str in
          if hot_path || hot_attr then
            Some
              {
                e_file = file;
                e_hot = (if hot_path then `Path else `Attribute);
                e_funcs = funcs_of_structure t.t_str;
              }
          else None)
    files

let print entries =
  List.iter
    (fun e ->
      Printf.printf "%s: hot (%s)\n" e.e_file
        (match e.e_hot with
        | `Path -> "path"
        | `Attribute -> "[@@@mmb.hot]");
      List.iter
        (fun f ->
          Printf.printf "%s:%d:   %s %s\n" e.e_file f.f_line f.f_name
            (counts_to_string f.f_counts))
        e.e_funcs)
    entries
