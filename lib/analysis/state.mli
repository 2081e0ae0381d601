(** Per-unit inventory of top-level mutable state, classified on the
    domain-safety lattice (DESIGN.md "Static analysis").

    The scan is syntactic: allocations are recognized by creator path
    (refs, [Hashtbl.create], arrays, [Dsim.Rng.create], [Atomic.make],
    [Domain.DLS.new_key], ...), mutable records only when their type is
    declared in the same unit, and init position means "outside every
    function and lazy body", nested module bodies included.
    Function-valued bindings contribute an item only when the closure
    captures the allocation (a memo table); init scratch consumed before
    the function is built does not outlive initialization. *)

type cls =
  | Dls  (** [Domain.DLS] key: per-domain by construction *)
  | Registry  (** declared registry file behind the resolver indirection *)
  | Atomic_protected  (** [Atomic] / [Mutex] / [Semaphore] cell *)
  | Lazy_forced  (** top-level [lazy] forced by [let () = ...] at init *)
  | Lazy_init  (** top-level [lazy] whose first force may race *)
  | Memo_closure  (** function capturing init-allocated mutable state *)
  | Shared  (** mutable, named, protected by nothing *)

type item = {
  i_name : string;
  i_creator : string;
  i_cls : cls;
  i_loc : Location.t;
}

val cls_to_string : cls -> string

val shared_creators : string list list
(** Creator paths whose result is mutable and unprotected (refs,
    tables, buffers, arrays, RNG states); shared with rule R2's
    capture environment. *)

val pat_name : Parsetree.pattern -> string option
(** The variable a simple (possibly constrained) pattern binds. *)

val idents_of : Parsetree.expression -> string list
(** Every simple identifier mentioned — the over-approximate
    free-variable set. *)

val registries : string list
(** Path suffixes of the files allowed to hold top-level mutable state:
    the deliberate process-global registries. *)

val of_structure : file:string -> Parsetree.structure -> item list
(** Items in source order.  [file] decides registry classification
    (via {!registries}). *)
