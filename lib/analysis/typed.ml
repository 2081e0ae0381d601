(* Typed-tree driver extension: the machinery the hot family (and any
   future type-aware rule) hangs on.  Where Driver walks untyped parsetrees,
   this module walks Typedtree structures — with inferred types, resolved
   paths, and attributes — obtained from one of two front ends:

   - whole-tree runs read the compiler's [.cmt] files from a build root
     (dune leaves one per module under [_build/default/**/.objs/byte]);
     a source file whose [.cmt] is missing is skipped gracefully, with a
     diagnostic, never a crash — analyzers must degrade when the build
     is cold;
   - tests and fixtures typecheck source text in-process against the
     stdlib ([of_source]), so rules can be posed at arbitrary paths
     without a dune build.

   Suppression comments, allowlists and stale accounting work exactly as
   in the untyped driver; rules may additionally opt out of suppression
   comments ([allow_only] — the hatch for rules like H3 whose findings
   must stay visible in the diff and be justified centrally). *)

type reporter = loc:Location.t -> string -> unit

type rule = {
  id : string;
  doc : string;
  applies : hot:bool -> file:string -> bool;
  allow_only : bool;
      (* when set, suppression comments are ignored: the allowlist is
         the only hatch *)
  build : file:string -> reporter -> Tast_iterator.iterator;
}

(* --- The hot set --------------------------------------------------------- *)

(* Directories whose every module is on the declared hot set, plus the
   attribute that opts any other module in. *)
let hot_dirs = [ "lib/dsim"; "lib/amac"; "lib/graphs"; "lib/dyn" ]
let hot_attribute = "mmb.hot"

let path_hot file = List.exists (fun dir -> Paths.in_dir ~dir file) hot_dirs

let marked_hot (str : Typedtree.structure) =
  List.exists
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_attribute a -> String.equal a.attr_name.txt hot_attribute
      | _ -> false)
    str.str_items

let is_hot ~file str = path_hot file || marked_hot str

(* --- Front end 1: .cmt files under a build root -------------------------- *)

let default_roots = [ "_build/default"; "." ]

let find_root () =
  List.find_opt
    (fun r -> Sys.file_exists r && Sys.is_directory r)
    default_roots

let rec collect_cmts acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | names ->
      Array.to_list names
      |> List.sort String.compare (* readdir order is unspecified *)
      |> List.fold_left
           (fun acc name ->
             let path = Filename.concat dir name in
             (* The walk covers the whole build tree, where dune may delete
                a stale test scratch entry between readdir and here. *)
             match Sys.is_directory path with
             | exception Sys_error _ -> acc
             | true -> collect_cmts acc path
             | false ->
                 if Filename.check_suffix name ".cmt" then path :: acc else acc)
           acc

type tree = {
  t_file : string;  (* source path as recorded by the compiler *)
  t_str : Typedtree.structure;
}

(* Load every implementation .cmt under [root], keyed by the source path
   the compiler recorded.  The load path is initialized from the union
   of the cmts' recorded load paths (absolutized against [root]) so
   [Envaux] can rebuild environments from their summaries — type lookup
   during analysis needs real environments. *)
let load_root root =
  let cmts = collect_cmts [] root in
  let infos =
    List.filter_map
      (fun path ->
        match Cmt_format.read_cmt path with
        | exception _ -> None
        | cmt -> Some cmt)
      cmts
  in
  let load_path =
    List.concat_map (fun (c : Cmt_format.cmt_infos) -> c.cmt_loadpath) infos
    |> List.map (fun d ->
           if Filename.is_relative d then Filename.concat root d else d)
    |> List.filter Sys.file_exists
    |> List.sort_uniq String.compare
  in
  Load_path.init ~auto_include:Load_path.no_auto_include load_path;
  Envaux.reset_cache ();
  List.filter_map
    (fun (cmt : Cmt_format.cmt_infos) ->
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src ->
          Some { t_file = src; t_str = str }
      | _ -> None)
    infos

(* A tree matches a requested source file when the recorded and the
   requested path agree up to a leading prefix (cmts record build-root
   relative paths; callers may pass repo-relative or absolute ones). *)
let tree_for trees file =
  List.find_opt
    (fun t ->
      String.equal t.t_file file
      || Paths.has_suffix ~suffix:t.t_file file
      || Paths.has_suffix ~suffix:file t.t_file)
    trees

(* --- Front end 2: in-process typechecking (fixtures and tests) ----------- *)

exception Type_error of string

let of_source ~file source =
  Compmisc.init_path ();
  Env.reset_cache ();
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  let past = Parse.implementation lexbuf in
  match Typemod.type_structure env past with
  | str, _, _, _, _ -> str
  | exception exn ->
      let msg =
        match Location.error_of_exn exn with
        | Some (`Ok report) ->
            Format.asprintf "%a" Location.print_report report
        | _ -> Printexc.to_string exn
      in
      raise (Type_error msg)

(* --- Running rules ------------------------------------------------------- *)

(* Mirror of Driver.run_parsed for typed structures: pose [str] at
   [file], consult (and hit-count) [sup] and [allow], honoring
   [allow_only] rules' refusal of suppression comments. *)
let run_structure ~rules ~allow ~sup ~file str =
  let hot = is_hot ~file str in
  let findings = ref [] in
  List.iter
    (fun r ->
      if r.applies ~hot ~file then begin
        let report ~loc msg =
          let pos = loc.Location.loc_start in
          let line = pos.Lexing.pos_lnum in
          let col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol in
          let hatched =
            ((not r.allow_only) && Suppress.suppressed sup ~rule:r.id ~line)
            || Allow.allowed allow ~rule:r.id ~file
          in
          if not hatched then
            findings :=
              { Finding.file; line; col; rule = r.id; msg } :: !findings
        in
        let it = r.build ~file report in
        it.Tast_iterator.structure it str
      end)
    rules;
  List.sort_uniq Finding.compare !findings

let run_source ~rules ?(allow = Allow.empty) ~file source =
  let sup = Suppress.scan source in
  match of_source ~file source with
  | str -> run_structure ~rules ~allow ~sup ~file str
  | exception Type_error _ -> [ Finding.parse_error ~file ]
  | exception _ -> [ Finding.parse_error ~file ]

(* Whole-tree entry point: analyze [files] against the .cmt trees under
   [root].  Files without a tree become (file, reason) skips, not
   findings — the
   caller decides how loudly to surface them (the CLI prints a
   diagnostic and `dune build @hot` guarantees the cmts exist by
   depending on the library archives). *)
let run_files ~rules ?(allow = Allow.empty) ?(stale = false) ?root files =
  let owns = Driver.owns (List.map (fun r -> r.id) rules) in
  let root =
    match root with
    | Some r -> r
    | None -> ( match find_root () with Some r -> r | None -> ".")
  in
  let trees = load_root root in
  let skips = ref [] in
  let per_file =
    List.concat_map
      (fun file ->
        match tree_for trees file with
        | None ->
            skips :=
              ( file,
                Printf.sprintf
                  "no .cmt under %s (build the libraries first: dune build \
                   @hot)"
                  root )
              :: !skips;
            []
        | Some tree ->
            let source =
              try Some (Driver.read_file file) with Sys_error _ -> None
            in
            let sup =
              Suppress.scan (match source with Some text -> text | None -> "")
            in
            let fs = run_structure ~rules ~allow ~sup ~file tree.t_str in
            if stale then fs @ Suppress.stale ~owns sup ~file else fs)
      files
  in
  let all = if stale then per_file @ Allow.stale ~owns allow else per_file in
  (List.sort Finding.compare all, List.rev !skips)

(* --- Typed helpers shared by rules --------------------------------------- *)

(* Environments inside cmt files are summaries; rebuild a real one when
   possible (needs the load path initialized, which [load_root] does)
   and fall back to the summary — lookups may then miss, which rules
   must treat as "not concrete, stay quiet". *)
let env_of (e : Typedtree.expression) =
  try Envaux.env_of_only_summary e.exp_env with _ -> e.exp_env

let expand env ty = try Ctype.expand_head env ty with _ -> ty

type concreteness = Immediate | Boxed | Unknown

(* Is [ty] a concrete type the runtime surely boxes?  [Unknown] covers
   type variables and abstract types — rules only fire on [Boxed], so
   polymorphic code and opaque aliases never trip them. *)
let rec concreteness env ty =
  match Types.get_desc (expand env ty) with
  | Tvar _ | Tunivar _ -> Unknown
  | Ttuple _ | Tarrow _ | Tobject _ | Tpackage _ -> Boxed
  | Tvariant _ -> Unknown (* constant-only polymorphic variants are immediate *)
  | Tpoly (t, _) -> concreteness env t
  | Tconstr (p, _, _) -> (
      if
        List.exists (Path.same p)
          [
            Predef.path_float;
            Predef.path_string;
            Predef.path_bytes;
            Predef.path_array;
            Predef.path_list;
            Predef.path_option;
            Predef.path_lazy_t;
            Predef.path_exn;
            Predef.path_int32;
            Predef.path_int64;
            Predef.path_nativeint;
          ]
      then Boxed
      else
        match Env.find_type p env with
        | exception Not_found -> Unknown
        | decl -> (
            match decl.type_immediate with
            | Always | Always_on_64bits -> Immediate
            | Unknown -> (
                match decl.type_kind with
                | Type_record _ -> Boxed
                | Type_variant (cstrs, _) ->
                    if
                      List.exists
                        (fun (c : Types.constructor_declaration) ->
                          match c.cd_args with
                          | Cstr_tuple [] -> false
                          | _ -> true)
                        cstrs
                    then Boxed
                    else Immediate
                | Type_open -> Boxed
                | Type_abstract -> Unknown)))
  | _ -> Unknown

(* Render a type on one line for finding messages. *)
let type_to_string env ty =
  let ty = expand env ty in
  let s = Format.asprintf "%a" Printtyp.type_expr ty in
  String.map (fun c -> if c = '\n' then ' ' else c) s

(* The expression-level allocation hatch: [e [@mmb.alloc_ok "why"]]. *)
let alloc_ok_attribute = "mmb.alloc_ok"

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let alloc_ok (e : Typedtree.expression) = has_attr alloc_ok_attribute e.exp_attributes
