(** Protocol-level trace properties — the MMB specification of Section
    3.2.2, checked over an execution (complementing {!Amac.Compliance},
    which checks the MAC layer below).

    Conditions checked (each failure is one human-readable finding):

    - {b unique arrival}: at most one [arrive(m)] per message
      (MMB-well-formedness);
    - {b exactly-once delivery}: at most one [deliver(m)] per (node,
      message) (MMB condition (b));
    - {b delivery causality}: every [deliver(m)] comes after the
      [arrive(m)] (condition (b)), and a delivery at a non-origin node is
      preceded by some MAC-level reception there;
    - {b completeness} (given the network): every message reaches every
      node of its origin's G-component (condition (a)).

    The check streams, as {!Amac.Compliance} does, on a flag per node and
    a {!Problem} ledger of its own, fed only by the audited entries: its
    exactly-once and completeness findings judge the trace, never the
    callback the run's ledger took. *)

type t

val create : dual:Graphs.Dual.t -> t
val on_entry : t -> Dsim.Trace.entry -> unit

val finish : t -> string list
(** Call once, after the last entry.  The findings, in entry order, then
    completeness by ascending message id; empty = the execution
    satisfies the MMB specification. *)

val check : dual:Graphs.Dual.t -> Dsim.Trace.t -> string list
(** {!finish} after {!on_entry} on each kept entry of the trace. *)
