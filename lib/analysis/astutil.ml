(* Small Parsetree helpers shared by the analyzers' rules. *)

let rec flatten_longident = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_longident l @ [ s ]
  | Longident.Lapply _ -> []

(* Any leading [Stdlib] is dropped so [Stdlib.Hashtbl.fold] and
   [Hashtbl.fold] match the same rule paths. *)
let longident_path lid =
  match flatten_longident lid with "Stdlib" :: rest -> rest | path -> path

let ident_path e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some (longident_path txt)
  | _ -> None

let path_is candidates e =
  match ident_path e with Some p -> List.mem p candidates | None -> false

let is_int_literal e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_integer _) -> true
  | _ -> false

let is_float_literal e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_float _) -> true
  | _ -> false

(* For builds that decide, from the file, that nothing can match. *)
let null_iterator =
  {
    Ast_iterator.default_iterator with
    structure = (fun _ _ -> ());
    signature = (fun _ _ -> ());
  }

let expr_rule on_expr =
  {
    Ast_iterator.default_iterator with
    expr =
      (fun it e ->
        on_expr e;
        Ast_iterator.default_iterator.expr it e);
  }
