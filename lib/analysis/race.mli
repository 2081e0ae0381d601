(** The race family: domain-safety and mutable-state escape rules.

    Rules (all syntactic over-approximations; see DESIGN.md "Static
    analysis"):
    - [R1] shared-unprotected top-level mutable state in any [lib/]
      unit, or in a worker-reachable [bench/] or [bin/] unit;
    - [R2] closures passed to [Domain.spawn] / [Pool.run] capturing
      mutable non-atomic local bindings;
    - [R4] top-level lazy / memoized values, same scope as R1, not
      forced at init.

    [Domain.DLS] outside [lib/exec] and [lib/pdes] is the lint family's
    D6. *)

val rules : reach:Reach.t -> Rule.t list
(** R1, R2, R4, with bench/ and bin/ scoped by [reach]
    ({!Reach.assume_all} for single-source analysis). *)

val reach_of_files : string list -> Reach.t
(** The reachability graph a whole-tree run uses. *)

val inventory : string list -> (string * bool * State.item list) list
(** [(file, worker_reachable, items)] per parseable file — the
    classified mutable-state inventory behind
    [mmb_analyze race --inventory]. *)

val family : Cli.family
