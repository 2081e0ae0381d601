(* Cross-module reference extraction: every qualified Longident a
   compilation unit mentions, with its source location and the syntactic
   position it appeared in.  This is the raw material the architecture
   rules (A1, A2, A4) pattern-match over.

   Collected positions: identifier expressions, constructors (expression
   and pattern), record fields (construction, access, update, pattern),
   type constructors, and module expressions/types — the last covers
   [open M], [include M] and [module G = M] because those payloads are
   module expressions. *)

type kind = Value | Constr | Field | Type | Module

type t = { r_path : string list; r_kind : kind; r_loc : Location.t }

let kind_to_string = function
  | Value -> "value"
  | Constr -> "constructor"
  | Field -> "field"
  | Type -> "type"
  | Module -> "module"

let iter f =
  let open Ast_iterator in
  let emit r_kind (lid : Longident.t Location.loc) =
    match Astutil.longident_path lid.Location.txt with
    | [] -> ()
    | r_path -> f { r_path; r_kind; r_loc = lid.Location.loc }
  in
  {
    default_iterator with
    expr =
      (fun it e ->
        (match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident lid -> emit Value lid
        | Parsetree.Pexp_construct (lid, _) -> emit Constr lid
        | Parsetree.Pexp_field (_, lid) -> emit Field lid
        | Parsetree.Pexp_setfield (_, lid, _) -> emit Field lid
        | Parsetree.Pexp_record (fields, _) ->
            List.iter (fun (lid, _) -> emit Field lid) fields
        | _ -> ());
        default_iterator.expr it e);
    pat =
      (fun it p ->
        (match p.Parsetree.ppat_desc with
        | Parsetree.Ppat_construct (lid, _) -> emit Constr lid
        | Parsetree.Ppat_record (fields, _) ->
            List.iter (fun (lid, _) -> emit Field lid) fields
        | _ -> ());
        default_iterator.pat it p);
    typ =
      (fun it ty ->
        (match ty.Parsetree.ptyp_desc with
        | Parsetree.Ptyp_constr (lid, _) -> emit Type lid
        | _ -> ());
        default_iterator.typ it ty);
    module_expr =
      (fun it me ->
        (match me.Parsetree.pmod_desc with
        | Parsetree.Pmod_ident lid -> emit Module lid
        | _ -> ());
        default_iterator.module_expr it me);
    module_type =
      (fun it mt ->
        (match mt.Parsetree.pmty_desc with
        | Parsetree.Pmty_ident lid -> emit Module lid
        | _ -> ());
        default_iterator.module_type it mt);
  }
