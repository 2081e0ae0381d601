(* Whole-file inventory of top-level mutable state.

   Every [let]-binding a compilation unit evaluates at module
   initialization, nested [module M = struct ... end] bodies included,
   is scanned for allocations of mutable state: refs,
   Hashtbl / Buffer / Queue / Stack / Bytes, arrays, Dsim.Rng states,
   Domain.DLS keys, Atomic / Mutex cells, records with mutable fields
   (when the record type is declared in the same file), and [lazy]
   thunks.  Each item is classified on the domain-safety lattice:

     Immutable        not in the inventory at all: nothing mutable is
                      allocated at init (the safe default)
     Dls              Domain.DLS key: per-domain by construction
     Registry         lives in a declared registry file (lib/obs/global.ml),
                      reached through the resolver indirection Exec.Pool
                      swaps per-domain
     Atomic_protected Atomic / Mutex / Semaphore cell: the primitive
                      itself is the synchronization
     Lazy_forced      top-level [lazy] forced by a [let () = ...] in the
                      same unit: initialized before any domain can spawn
     Lazy_init        top-level [lazy] with no init-time force: first
                      force may race across domains
     Memo_closure     a function value whose initializer allocates
                      mutable state the function captures (a memo table)
     Shared           everything else: mutable, reachable by name from
                      any domain, protected by nothing

   The classification is syntactic and per-unit by design: it feeds
   rules R1/R4, whose job is to make Domain-partitioning the engine a
   checked refactor, not to prove the absence of races.  Pattern-matched
   creator lists over-approximate. *)

type cls =
  | Dls
  | Registry
  | Atomic_protected
  | Lazy_forced
  | Lazy_init
  | Memo_closure
  | Shared

type item = {
  i_name : string;  (* bound name, or "_" for complex patterns *)
  i_creator : string;  (* the allocating construct, for messages *)
  i_cls : cls;
  i_loc : Location.t;
}

let cls_to_string = function
  | Dls -> "domain-local"
  | Registry -> "registry-confined"
  | Atomic_protected -> "atomic-protected"
  | Lazy_forced -> "lazy-forced-at-init"
  | Lazy_init -> "lazy-unforced"
  | Memo_closure -> "memoized-closure"
  | Shared -> "shared-unprotected"

(* --- Creator tables ------------------------------------------------------ *)

let dls_creators = [ [ "Domain"; "DLS"; "new_key" ] ]

let atomic_creators =
  [
    [ "Atomic"; "make" ];
    [ "Mutex"; "create" ];
    [ "Semaphore"; "Counting"; "make" ];
    [ "Semaphore"; "Binary"; "make" ];
  ]

let shared_creators =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Buffer"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Array"; "make_matrix" ];
    [ "Array"; "of_list" ];
    [ "Array"; "copy" ];
    [ "Dsim"; "Rng"; "create" ];
    [ "Rng"; "create" ];
  ]

let all_creators = dls_creators @ atomic_creators @ shared_creators

(* --- Helpers ------------------------------------------------------------- *)

let pat_name p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> Some txt
  | Parsetree.Ppat_constraint ({ ppat_desc = Parsetree.Ppat_var { txt; _ }; _ }, _)
    ->
      Some txt
  | _ -> None

(* Files allowed to hold top-level mutable state.  Each is a deliberate
   process-global registry, documented as such, that Exec.Pool makes
   per-domain through a resolver indirection. *)
let registries = [ "lib/obs/global.ml" ]

(* The structure items a unit evaluates at initialization: its own, and
   those of every module, recursive module or include body nested in
   it, whose state is as top-level as the enclosing unit's. *)
let rec init_items str =
  List.concat_map
    (fun si ->
      match si.Parsetree.pstr_desc with
      | Parsetree.Pstr_module mb -> module_items mb.Parsetree.pmb_expr
      | Parsetree.Pstr_recmodule mbs ->
          List.concat_map (fun mb -> module_items mb.Parsetree.pmb_expr) mbs
      | Parsetree.Pstr_include incl -> module_items incl.Parsetree.pincl_mod
      | _ -> [ si ])
    str

and module_items me =
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_structure str -> init_items str
  | Parsetree.Pmod_constraint (me, _) | Parsetree.Pmod_functor (_, me) ->
      module_items me
  | _ -> []

let is_unit_or_any p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any -> true
  | Parsetree.Ppat_construct ({ txt = Longident.Lident "()"; _ }, None) -> true
  | _ -> false

(* Mutable record-field labels declared in this unit.  A top-level record
   literal mentioning one of them allocates mutable state (only same-unit
   types are visible to a per-file pass; cross-unit mutable records are
   out of scope, documented in DESIGN.md "Static analysis"). *)
let mutable_labels str =
  let labels = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match td.Parsetree.ptype_kind with
          | Parsetree.Ptype_record lds ->
              List.iter
                (fun ld ->
                  if ld.Parsetree.pld_mutable = Asttypes.Mutable then
                    labels := ld.Parsetree.pld_name.Asttypes.txt :: !labels)
                lds
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.Ast_iterator.structure it str;
  !labels

(* Peel let/sequence/constraint wrappers to the binding's result
   expression: the value the top-level name is actually bound to. *)
let rec result_expr e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_let (_, _, body) -> result_expr body
  | Parsetree.Pexp_sequence (_, body) -> result_expr body
  | Parsetree.Pexp_constraint (body, _) -> result_expr body
  | Parsetree.Pexp_open (_, body) -> result_expr body
  | _ -> e

let is_function e =
  match (result_expr e).Parsetree.pexp_desc with
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ | Parsetree.Pexp_newtype _
    ->
      true
  | _ -> false

(* All simple identifiers an expression mentions — the over-approximate
   free-variable set used to decide whether an init-allocated local is
   captured by a returned closure. *)
let idents_of e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt = Longident.Lident s; _ } ->
              acc := s :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.Ast_iterator.expr it e;
  !acc

(* Scan [e] for creator applications evaluated at module init: descend
   everywhere except function and lazy bodies (those run later).  Each
   hit reports the creator path, its location, and the name of the local
   [let] it is bound to, when there is one. *)
let init_creators e =
  let hits = ref [] in
  let rec go ~bound e =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ | Parsetree.Pexp_lazy _
      ->
        ()
    | Parsetree.Pexp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            go
              ~bound:(pat_name vb.Parsetree.pvb_pat)
              vb.Parsetree.pvb_expr)
          vbs;
        go ~bound body
    | Parsetree.Pexp_apply (fn, args) ->
        (match Astutil.ident_path fn with
        | Some p when List.mem p all_creators ->
            hits :=
              (p, fn.Parsetree.pexp_loc, bound) :: !hits
        | _ -> ());
        List.iter (fun (_, a) -> go ~bound:None a) args;
        go ~bound:None fn
    | _ ->
        (* Generic descent that preserves the init-position discipline:
           reuse the iterator for children, but its expr hook must route
           back through [go], so build a one-shot iterator. *)
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ child -> go ~bound:None child);
          }
        in
        Ast_iterator.default_iterator.expr it e
  in
  go ~bound:None e;
  List.rev !hits

(* Names forced at init by a top-level [let () = ... Lazy.force x ...]
   (or [let _ = ...]): those lazies are initialized before any worker
   domain can exist. *)
let forced_names str =
  let forced = ref [] in
  let scan_body e =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_apply (fn, (_, arg) :: _)
              when Astutil.path_is [ [ "Lazy"; "force" ] ] fn -> (
                match arg.Parsetree.pexp_desc with
                | Parsetree.Pexp_ident { txt = Longident.Lident s; _ } ->
                    forced := s :: !forced
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.Ast_iterator.expr it e
  in
  List.iter
    (fun si ->
      match si.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              if is_unit_or_any vb.Parsetree.pvb_pat then
                scan_body vb.Parsetree.pvb_expr)
            vbs
      | Parsetree.Pstr_eval (e, _) -> scan_body e
      | _ -> ())
    (init_items str);
  !forced

(* --- The inventory ------------------------------------------------------- *)

let classify ~registry ~is_fun path =
  if List.mem path dls_creators then Dls
  else if List.mem path atomic_creators then Atomic_protected
  else if registry then Registry
  else if is_fun then Memo_closure
  else Shared

let of_structure ~file str =
  let registry =
    List.exists
      (fun suffix -> Paths.has_suffix ~suffix file)
      registries
  in
  let mut_labels = mutable_labels str in
  let forced = forced_names str in
  let items = ref [] in
  let add i = items := i :: !items in
  let scan_binding vb =
    let name = Option.value (pat_name vb.Parsetree.pvb_pat) ~default:"_" in
    let e = vb.Parsetree.pvb_expr in
    let result = result_expr e in
    (* Top-level lazy: raced first-force unless forced at init. *)
    (match result.Parsetree.pexp_desc with
    | Parsetree.Pexp_lazy _ ->
        add
          {
            i_name = name;
            i_creator = "lazy";
            i_cls = (if List.mem name forced then Lazy_forced else Lazy_init);
            i_loc = result.Parsetree.pexp_loc;
          }
    | _ -> ());
    let is_fun = is_function e in
    let fun_idents = if is_fun then idents_of result else [] in
    List.iter
      (fun (path, loc, bound) ->
        (* In a function-valued binding, an init allocation matters only
           when the closure captures it: scratch consumed during init
           (an RNG burned building a precomputed structure) is dead by
           the time workers could look. *)
        let captured =
          match bound with
          | Some local -> List.mem local fun_idents
          | None -> true (* anonymous allocation flowing into the value *)
        in
        if (not is_fun) || captured then
          add
            {
              i_name = name;
              i_creator = String.concat "." path;
              i_cls = classify ~registry ~is_fun path;
              i_loc = loc;
            })
      (init_creators e);
    (* Record literal with a same-unit mutable field, at init position. *)
    if not (is_function e) then
      let rec record_scan e =
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _
        | Parsetree.Pexp_lazy _ ->
            ()
        | Parsetree.Pexp_record (fields, _)
          when List.exists
                 (fun ({ Location.txt; _ }, _) ->
                   match Astutil.longident_path txt with
                   | [ l ] -> List.mem l mut_labels
                   | _ -> false)
                 fields ->
            add
              {
                i_name = name;
                i_creator = "mutable record";
                i_cls = (if registry then Registry else Shared);
                i_loc = e.Parsetree.pexp_loc;
              }
        | _ ->
            let it =
              {
                Ast_iterator.default_iterator with
                expr = (fun _ child -> record_scan child);
              }
            in
            Ast_iterator.default_iterator.expr it e
      in
      record_scan e
  in
  List.iter
    (fun si ->
      match si.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              (* [let () = ...] / [let _ = ...] run for effect at init;
                 nothing they allocate outlives init under a name. *)
              if not (is_unit_or_any vb.Parsetree.pvb_pat) then
                scan_binding vb)
            vbs
      | _ -> ())
    (init_items str);
  List.rev !items
