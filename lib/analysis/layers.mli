(** The project's layer DAG (check rule A1).

    [dsim -> graphs -> dyn -> {amac, pdes} -> {mmb, radio} -> obs -> exec
     -> {bench, bin}]

    An arrow means "may be referenced by"; equal-rank layers (mmb and
    radio) are independent siblings.  The analyzer library
    ([lib/analysis]) sits outside the DAG entirely. *)

type t = { name : string; rank : int }

val dag : string
(** The DAG rendered for messages and [--rules] output. *)

val of_path : string -> t option
(** Layer of a source path: the [lib/<layer>/] component, or the
    pseudo-layers [bench]/[bin] (rank 6).  [None] for files outside the
    DAG (tests, analyzer sources). *)

val of_module : string -> t option
(** Layer owning a top-level wrapped-library module name ([Dsim],
    [Graphs], [Amac], [Mmb], [Radio], [Obs], [Exec]). *)
