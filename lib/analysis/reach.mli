(** Module-level worker-reachability: which compilation units can
    execute on a Pool worker domain.

    Roots are every unit in [lib/exec] plus every unit that references
    the exec library (a pool client can hand any closure it builds to a
    worker); the relation then closes transitively over cross-unit
    references.  This is a deliberate over-approximation — see
    DESIGN.md "Static analysis".  The race family consults it for
    bench/ and bin/ units only; every lib/ unit is in R1/R4's scope. *)

type t

val assume_all : t
(** The no-context graph: every file is reachable.  Single-source
    analysis (tests posing fixtures) uses it — without tree context the
    conservative answer is the safe one. *)

val compute : (string * Parsetree.structure) list -> t
(** Build the graph from every scanned (file, AST) pair. *)

val worker_reachable : t -> file:string -> bool
(** Files outside the scanned tree shape are reported reachable. *)

val unit_of_path : string -> string option
(** ["lib/exec/pool.ml"] is [Some "exec/Pool"]; exposed for tests. *)
