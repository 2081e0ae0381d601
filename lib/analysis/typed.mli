(** Typed-tree driver extension.

    Where {!Driver} walks untyped parsetrees, this module walks
    [Typedtree] structures — inferred types, resolved paths, attributes —
    from one of two front ends: whole-tree runs read the compiler's
    [.cmt] files under a build root (graceful per-file skip when a cmt
    is missing), and tests typecheck source text in-process against the
    stdlib.  The hot family is the first client; see DESIGN.md
    "Static analysis". *)

type reporter = loc:Location.t -> string -> unit

type rule = {
  id : string;
  doc : string;
  applies : hot:bool -> file:string -> bool;
      (** path filter; [hot] says whether the module is on the hot set *)
  allow_only : bool;
      (** when set, suppression comments are ignored — the allowlist is
          the only escape hatch (rule H3) *)
  build : file:string -> reporter -> Tast_iterator.iterator;
}

(** {1 The hot set} *)

val hot_dirs : string list
(** Directories whose every module is hot: [lib/dsim], [lib/amac],
    [lib/graphs], [lib/dyn]. *)

val hot_attribute : string
(** The floating attribute ([[\@\@\@mmb.hot]]) that opts any other
    module into the hot set. *)

val path_hot : string -> bool
val marked_hot : Typedtree.structure -> bool
val is_hot : file:string -> Typedtree.structure -> bool

(** {1 Front ends} *)

type tree = { t_file : string; t_str : Typedtree.structure }

val find_root : unit -> string option
(** First existing of [_build/default] (repo root) and [.] (inside the
    build dir, where dune rule actions run). *)

val load_root : string -> tree list
(** Read every implementation [.cmt] under a build root, keyed by the
    compiler-recorded source path, and initialize the load path so
    [Envaux] can rebuild environments from summaries. *)

val tree_for : tree list -> string -> tree option

exception Type_error of string

val of_source : file:string -> string -> Typedtree.structure
(** Typecheck source text in-process against the stdlib (the fixture
    front end).  Raises {!Type_error} on ill-typed input. *)

(** {1 Running rules} *)

val run_structure :
  rules:rule list ->
  allow:Allow.t ->
  sup:Suppress.t ->
  file:string ->
  Typedtree.structure ->
  Finding.t list

val run_source :
  rules:rule list -> ?allow:Allow.t -> file:string -> string -> Finding.t list
(** Typecheck and analyze source text posed at [file]; ill-typed or
    unparseable input yields the standard [E0] finding. *)

val run_files :
  rules:rule list ->
  ?allow:Allow.t ->
  ?stale:bool ->
  ?root:string ->
  string list ->
  Finding.t list * (string * string) list
(** Whole-tree analysis over the [.cmt] trees under [root] (default:
    {!find_root}).  Files without a tree are returned as
    [(file, reason)] skips: diagnostics, not findings, so they never
    affect the exit code of a run whose analyzed files are clean.  Stale
    accounting is {!Driver.run_files}'. *)

(** {1 Typed helpers for rules} *)

val env_of : Typedtree.expression -> Env.t
(** The expression's environment, rebuilt from its cmt summary when
    possible. *)

val expand : Env.t -> Types.type_expr -> Types.type_expr

type concreteness = Immediate | Boxed | Unknown

val concreteness : Env.t -> Types.type_expr -> concreteness
(** Conservative boxing judgement: [Boxed] only when the runtime surely
    boxes values of the type; [Unknown] for type variables and abstract
    types (rules must stay quiet on those). *)

val type_to_string : Env.t -> Types.type_expr -> string
(** One-line rendering for finding messages. *)

val alloc_ok_attribute : string
(** ["mmb.alloc_ok"] — the expression-level allocation hatch. *)

val has_attr : string -> Parsetree.attributes -> bool
val alloc_ok : Typedtree.expression -> bool
