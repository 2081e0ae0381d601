(** The hot family: hot-path discipline rules over typed trees.

    Rules (typed judgements; see DESIGN.md "Static analysis"):
    - [H1] polymorphic [=]/[compare]/[Hashtbl.hash] applied at a boxed
      concrete type, or a polymorphic-keyed [Hashtbl.create] at a boxed
      key type outside [Dsim.Tbl] — hot set only;
    - [H2] allocation in hot functions: closures capturing [ref]s,
      tuple-returning callback literals, boxed-float lets; hatch
      [[\@mmb.alloc_ok "why"]] — hot set only;
    - [H3] [Obj.*], [Marshal.*], [%identity] externals anywhere in
      [lib/] — allowlist-only (suppression comments are ignored);
    - [H4] [Printf]/[Format]/string-concat on the hot set without a
      tracing-off guard.

    The hot set is [lib/dsim], [lib/amac], [lib/graphs], [lib/dyn],
    plus any module carrying [[\@\@\@mmb.hot]]. *)

val rules : Typed.rule list
(** H1–H4, in order. *)

val family : Cli.family
(** [mmb_analyze hot]: whole-tree runs read the [.cmt] trees under
    [_build/default] (or [.] inside the build dir); a file without one is
    a skip diagnostic, never a failure.  [--inventory] prints the hot
    set with each top-level function's allocation classification. *)
