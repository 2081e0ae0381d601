(** The lint family: determinism rules over the project's OCaml sources.

    - [D1] [Hashtbl.iter]/[Hashtbl.fold] — unspecified iteration order;
      use {!Dsim.Tbl} instead.
    - [D2] global [Random.*] outside [lib/dsim/rng.ml] — all randomness
      must flow through the seeded [Dsim.Rng].
    - [D3] wall-clock/ambient reads ([Sys.time], [Unix.gettimeofday],
      [Sys.getenv], ...) inside [lib/].
    - [D4] physical equality [==]/[!=] where neither operand is an int
      literal.
    - [D5] polymorphic [compare] in sort comparators inside [lib/].
    - [D6] parallel primitives ([Domain.*] including [Domain.DLS],
      [Mutex.*], [Atomic.*], ...) anywhere outside [lib/exec/] and
      [lib/pdes/] — the campaign pool and the horizon-parallel engine
      are the two sanctioned bridges to multicore execution.

    See DESIGN.md "Static analysis". *)

val rules : Rule.t list
(** D1–D6, in order. *)

val family : Cli.family
(** [mmb_analyze lint]; its [--inventory] prints the hatch map: every
    suppression comment in the given files with the rule ids it waives. *)
