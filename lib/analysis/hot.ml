(* The hot family (H1–H4): hot-path discipline over typed trees.  The
   parsetree families guard determinism (lint), architecture (check) and
   domain safety (race); this one guards the performance invariants of
   the per-event path — no polymorphic comparison, no stray allocation,
   no unsafe casts, no unguarded formatting — so "fast as the hardware
   allows" is a checked property, not a hand-audited one.

   Every judgement here is type-aware — boxedness from inferred types,
   identities from resolved paths — which is exactly what the parsetree
   families cannot see.  All rules are conservative: a type variable or
   abstract type is never "surely boxed", so polymorphic and opaque code
   stays quiet rather than flooding.

   Scopes: H1/H2/H4 run on the hot set (lib/{dsim,amac,graphs,dyn} plus
   any module carrying [@@@mmb.hot]); H3 runs over all of lib/ and
   accepts no suppression comments — the allowlist, with a written
   justification, is its only hatch.

   Whole-tree runs (`dune build @hot`) read .cmt files from the build
   root; a missing .cmt is a per-file SKIP diagnostic, never a failure,
   so the family degrades gracefully on a cold build.  Tests and
   fixtures typecheck source in-process instead (Typed.run_source). *)

open Typedtree
module T = Typed

let hot_scope ~hot ~file:_ = hot

(* --- Shared path helpers ------------------------------------------------- *)

let name_of p = Path.name p

let starts_with_any prefixes n =
  List.exists (fun prefix -> String.starts_with ~prefix n) prefixes

(* Peel [ty]'s arrows down to the final result, skipping parameters. *)
let rec result_type env ty =
  match Types.get_desc (T.expand env ty) with
  | Tarrow (_, _, rest, _) -> result_type env rest
  | _ -> T.expand env ty

(* First explicit parameter type of an arrow, skipping optional args
   (their presence would make every probe see [?opt:... -> _]). *)
let rec first_param env ty =
  match Types.get_desc (T.expand env ty) with
  | Tarrow (Optional _, _, rest, _) -> first_param env rest
  | Tarrow (_, arg, _, _) -> Some (T.expand env arg)
  | _ -> None

(* --- H1: polymorphic comparison/hashing at boxed types ------------------- *)

let poly_compare_ops =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.Hashtbl.hash" ]

(* Comparison primitives fully applied at these types are specialized by
   the compiler (Translcore) into direct monomorphic comparisons — no
   generic-compare call ever happens, so H1 stays quiet.  Passing the
   operator as a first-class comparator still fires: a closure is never
   specialized.  (Hashtbl.hash is not a comparison primitive and is
   never specialized.) *)
let specializable_ops = [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare" ]

let compiler_specialized env ty =
  match Types.get_desc (T.expand env ty) with
  | Tconstr (p, [], _) ->
      List.exists (Path.same p)
        [
          Predef.path_float;
          Predef.path_string;
          Predef.path_int32;
          Predef.path_int64;
          Predef.path_nativeint;
        ]
  | _ -> false

let h1_suggestion env ty =
  match Types.get_desc (T.expand env ty) with
  | Tconstr (p, _, _) when Path.same p Predef.path_float ->
      "use Float.equal/Float.compare"
  | Tconstr (p, _, _) when Path.same p Predef.path_string ->
      "use String.equal/String.compare"
  | Ttuple _ ->
      "compare components monomorphically (or pack the tuple into one int)"
  | _ -> "write a monomorphic comparator/hash for this type"

let h1 : T.rule =
  {
    id = "H1";
    doc =
      "polymorphic =/compare/Hashtbl.hash at a boxed type, or a \
       polymorphic-keyed Hashtbl.create outside Dsim.Tbl, on the hot set";
    applies = hot_scope;
    allow_only = false;
    build =
      (fun ~file report ->
        let in_tbl = Paths.has_suffix ~suffix:"lib/dsim/tbl.ml" file in
        let rec expr sub (e : expression) =
          match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
            when List.mem (name_of p) specializable_ops
                 && List.length args = 2
                 && List.for_all
                      (fun (_, a) ->
                        match a with
                        | Some (a : expression) ->
                            compiler_specialized (T.env_of a) a.exp_type
                        | None -> false)
                      args ->
              (* specialized direct comparison: visit the arguments only,
                 never the operator ident *)
              List.iter (fun (_, a) -> Option.iter (expr sub) a) args
          | _ ->
              (match e.exp_desc with
          | Texp_ident (p, _, _) when List.mem (name_of p) poly_compare_ops
            -> (
              let env = T.env_of e in
              match first_param env e.exp_type with
              | Some arg when T.concreteness env arg = T.Boxed ->
                  report ~loc:e.exp_loc
                    (Printf.sprintf
                       "polymorphic %s at boxed type %s: %s"
                       (Path.last p)
                       (T.type_to_string env arg)
                       (h1_suggestion env arg))
              | _ -> ())
          | Texp_ident (p, _, _)
            when String.equal (name_of p) "Stdlib.Hashtbl.create"
                 && not in_tbl -> (
              let env = T.env_of e in
              match
                Types.get_desc (result_type env e.exp_type)
              with
              | Tconstr (_, [ key; _ ], _)
                when T.concreteness env key = T.Boxed ->
                  report ~loc:e.exp_loc
                    (Printf.sprintf
                       "Hashtbl.create with polymorphic hashing on boxed \
                        key type %s outside Dsim.Tbl: pack the key into an \
                        int or hash it monomorphically"
                       (T.type_to_string env key))
              | _ -> ())
          | _ -> ());
              Tast_iterator.default_iterator.expr sub e
        in
        { Tast_iterator.default_iterator with expr });
  }

(* --- H2: allocation in hot functions ------------------------------------- *)

(* Flagged shapes, all inside function bodies of hot modules:
   - a closure whose free variables include a [ref] bound outside it
     (the closure must be heap-allocated to carry the cell);
   - a literal callback returning a tuple (a box per call);
   - a let binding a boxed-float container (float option/ref/list,
     or a tuple with a float component) — the unboxed-array idiom from
     the PR 5 heap overhaul applies.
   The hatch is expression- or binding-level: [@mmb.alloc_ok "why"]. *)

let is_ref_type env ty =
  Alloc.constr_is env ty [ "ref"; "Stdlib.ref" ] <> None

(* Free [ref]-typed variables of [e] that are neither bound inside it
   nor module-level (module-level cells need no closure environment). *)
let ref_captures ~globals (e : expression) =
  let bound = Hashtbl.create 16 in
  let caps = ref [] in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    List.iter
      (fun id -> Hashtbl.replace bound (Ident.unique_name id) ())
      (pat_bound_idents p);
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub (x : expression) =
    (match x.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        let n = Ident.unique_name id in
        if
          is_ref_type (T.env_of x) x.exp_type
          && (not (Hashtbl.mem bound n))
          && (not (Hashtbl.mem globals n))
          && not (List.mem (Ident.name id) !caps)
        then caps := Ident.name id :: !caps
    | _ -> ());
    Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.expr it e;
  List.rev !caps

let h2 : T.rule =
  {
    id = "H2";
    doc =
      "allocation in a hot function: ref-capturing closure, \
       tuple-returning callback literal, or boxed-float let \
       ([@mmb.alloc_ok \"why\"] to justify)";
    applies = hot_scope;
    allow_only = false;
    build =
      (fun ~file:_ report ->
        let globals = Hashtbl.create 64 in
        let depth = ref 0 in
        let check_closure (e : expression) =
          match ref_captures ~globals e with
          | [] -> ()
          | caps ->
              report ~loc:e.exp_loc
                (Printf.sprintf
                   "closure capturing mutable state (%s): allocated per \
                    call to carry the cell; hoist the state or the closure"
                   (String.concat ", " caps))
        in
        let check_callback (a : expression) =
          match a.exp_desc with
          | Texp_function _ when not (T.alloc_ok a) -> (
              let env = T.env_of a in
              match Types.get_desc (result_type env a.exp_type) with
              | Ttuple _ ->
                  report ~loc:a.exp_loc
                    (Printf.sprintf
                       "callback returns %s: a box per invocation; return \
                        through a preallocated record or out-parameters"
                       (T.type_to_string env (result_type env a.exp_type)))
              | _ -> ())
          | _ -> ()
        in
        let check_float_let (vb : value_binding) =
          let env = T.env_of vb.vb_expr in
          match Alloc.boxed_float_container env vb.vb_expr.exp_type with
          | Some what ->
              report ~loc:vb.vb_pat.pat_loc
                (Printf.sprintf
                   "let binds a %s: boxes every float; use the unboxed \
                    float-array idiom (parallel arrays, Float.Array)"
                   what)
          | None -> ()
        in
        let rec expr sub (e : expression) =
          if T.alloc_ok e then () (* justified subtree: reviewed, skip *)
          else
            match e.exp_desc with
            | Texp_function f ->
                if !depth >= 1 then check_closure e;
                incr depth;
                Alloc.visit_cases sub f.cases (fun body -> expr sub body);
                decr depth
            | Texp_let (_, vbs, body) ->
                List.iter
                  (fun vb ->
                    if not (T.has_attr T.alloc_ok_attribute vb.vb_attributes)
                    then begin
                      if !depth >= 1 then check_float_let vb;
                      sub.pat sub vb.vb_pat;
                      expr sub vb.vb_expr
                    end)
                  vbs;
                expr sub body
            | Texp_apply (f, args) ->
                expr sub f;
                List.iter
                  (fun (_, a) ->
                    Option.iter
                      (fun a ->
                        check_callback a;
                        expr sub a)
                      a)
                  args
            | _ -> Tast_iterator.default_iterator.expr sub e
        in
        let value_binding sub (vb : value_binding) =
          if not (T.has_attr T.alloc_ok_attribute vb.vb_attributes) then
            Tast_iterator.default_iterator.value_binding sub vb
        in
        let structure sub (str : structure) =
          (* Pre-pass: module-level names are not captures. *)
          List.iter
            (fun (item : structure_item) ->
              match item.str_desc with
              | Tstr_value (_, vbs) ->
                  List.iter
                    (fun vb ->
                      List.iter
                        (fun id ->
                          Hashtbl.replace globals (Ident.unique_name id) ())
                        (pat_bound_idents vb.vb_pat))
                    vbs
              | _ -> ())
            str.str_items;
          Tast_iterator.default_iterator.structure sub str
        in
        { Tast_iterator.default_iterator with expr; structure; value_binding });
  }

(* --- H3: unsafe escape hatches anywhere in lib/ -------------------------- *)

let h3 : T.rule =
  {
    id = "H3";
    doc =
      "Obj.*, Marshal.*, or a %identity external in lib/ \
       (allowlist-only: no suppression comments)";
    applies = (fun ~hot:_ ~file -> Paths.in_dir ~dir:"lib" file);
    allow_only = true;
    build =
      (fun ~file:_ report ->
        let unsafe = [ "Stdlib.Obj."; "Stdlib.Marshal." ] in
        let expr sub (e : expression) =
          (match e.exp_desc with
          | Texp_ident (p, _, _) when starts_with_any unsafe (name_of p) ->
              report ~loc:e.exp_loc
                (Printf.sprintf
                   "%s breaks abstraction and the GC's invariants; if truly \
                    required, justify it in analysis.allow"
                   (name_of p))
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e
        in
        let module_expr sub (m : module_expr) =
          (match m.mod_desc with
          | Tmod_ident (p, _)
            when List.mem (name_of p) [ "Stdlib.Obj"; "Stdlib.Marshal" ] ->
              report ~loc:m.mod_loc
                (Printf.sprintf "aliasing %s hides the unsafe surface"
                   (name_of p))
          | _ -> ());
          Tast_iterator.default_iterator.module_expr sub m
        in
        let structure_item sub (item : structure_item) =
          (match item.str_desc with
          | Tstr_primitive vd when List.mem "%identity" vd.val_prim ->
              report ~loc:item.str_loc
                "external %identity defeats the type checker; if truly \
                 required, justify it in analysis.allow"
          | _ -> ());
          Tast_iterator.default_iterator.structure_item sub item
        in
        {
          Tast_iterator.default_iterator with
          expr;
          module_expr;
          structure_item;
        });
  }

(* --- H4: unguarded formatting on the hot set ----------------------------- *)

(* Formatting reachable from hot code must sit behind a tracing-off
   guard (PR 7's zero-alloc-when-off contract).  Exempt contexts:
   - under an [if]/[match] whose condition mentions a tracing/debug
     flag (an ident or record field named tracing/trace/live/enabled/
     debug/verbose/is_on);
   - arguments of raise/failwith/invalid_arg — error paths terminate;
   - bindings whose name marks a cold formatter (a pp/print/show/
     to_string/to_json/dump prefix). *)

let format_prefixes = [ "Stdlib.Printf."; "Stdlib.Format."; "Fmt." ]
let format_names = [ "Stdlib.^"; "Stdlib.String.concat" ]

let guard_words =
  [ "tracing"; "trace"; "live"; "enabled"; "debug"; "verbose"; "is_on" ]

let cold_binding_prefixes =
  [ "pp"; "print"; "show"; "to_string"; "to_json"; "dump"; "describe" ]

let raising_ops =
  [
    "Stdlib.raise";
    "Stdlib.raise_notrace";
    "Stdlib.failwith";
    "Stdlib.invalid_arg";
  ]

let mentions_guard_word (e : expression) =
  let found = ref false in
  let word n = List.mem n guard_words in
  let expr sub (x : expression) =
    (match x.exp_desc with
    | Texp_ident (p, _, _) when word (Path.last p) -> found := true
    | Texp_field (_, _, lbl) when word lbl.lbl_name -> found := true
    | _ -> ());
    if not !found then Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let h4 : T.rule =
  {
    id = "H4";
    doc =
      "Printf/Format/string-concat on the hot set without a tracing-off \
       guard (zero-alloc-when-off contract)";
    applies = hot_scope;
    allow_only = false;
    build =
      (fun ~file:_ report ->
        let exempt = ref 0 in
        let rec expr sub (e : expression) =
          match e.exp_desc with
          | Texp_ident (p, _, _)
            when !exempt = 0
                 && (starts_with_any format_prefixes (name_of p)
                    || List.mem (name_of p) format_names) ->
              report ~loc:e.exp_loc
                (Printf.sprintf
                   "%s on the hot set without a tracing-off guard: wrap in \
                    the tracing conditional or move off the hot path"
                   (name_of p))
          | Texp_ifthenelse (cond, then_, else_)
            when mentions_guard_word cond ->
              expr sub cond;
              incr exempt;
              expr sub then_;
              Option.iter (expr sub) else_;
              decr exempt
          | Texp_match (scrut, cases, _) when mentions_guard_word scrut ->
              expr sub scrut;
              incr exempt;
              List.iter
                (fun c ->
                  sub.Tast_iterator.pat sub c.c_lhs;
                  Option.iter (expr sub) c.c_guard;
                  expr sub c.c_rhs)
                cases;
              decr exempt
          | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as f), args)
            when List.mem (name_of p) raising_ops ->
              expr sub f;
              incr exempt;
              List.iter (fun (_, a) -> Option.iter (expr sub) a) args;
              decr exempt
          | _ -> Tast_iterator.default_iterator.expr sub e
        in
        let value_binding sub (vb : value_binding) =
          let cold =
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) ->
                starts_with_any cold_binding_prefixes (Ident.name id)
            | _ -> false
          in
          if cold then begin
            incr exempt;
            Tast_iterator.default_iterator.value_binding sub vb;
            decr exempt
          end
          else Tast_iterator.default_iterator.value_binding sub vb
        in
        { Tast_iterator.default_iterator with expr; value_binding });
  }

let rules = [ h1; h2; h3; h4 ]

(* The hot-set inventory behind --inventory: every hot module (by path
   or [@@@mmb.hot]) with its top-level functions' allocation
   classification. *)
let print_inventory files =
  let root = Option.value (T.find_root ()) ~default:"." in
  Alloc.print (Alloc.of_trees (T.load_root root) files)

let family =
  {
    Cli.name = "hot";
    exts = [ ".ml" ];
    rules_doc = List.map (fun (r : T.rule) -> (r.id, r.doc)) rules;
    run =
      (fun ~allow ~stale files -> T.run_files ~rules ~allow ~stale files);
    inventory = print_inventory;
  }
