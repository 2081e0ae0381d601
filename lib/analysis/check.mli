(** The check family: cross-module architecture and abstraction-boundary
    rules.

    - [A1] layer-DAG back-edges (and sibling edges between mmb and
      radio): every cross-library reference must point strictly down
      {!Layers.dag}.
    - [A2] lib/mmb touches [Graphs] only through the sanctioned
      capability surface ({!Capability.mmb_graphs}) — the paper's
      protocols are link-oblivious.
    - [A4] engine-event injection ([Dsim.Sim.schedule]/[schedule_at]/
      [cancel]) and trace emission ([Dsim.Trace.record]) outside
      [lib/dsim], [lib/amac], [lib/pdes] and [lib/obs]; protocols use
      the sanctioned seams [Amac.Standard_mac.env_at] and
      [Amac.Mac_handle.record].
    - [A5] float literals compared with polymorphic [=]/[<>] inside
      [lib/].
    - [A6] Dyn epoch mutation ({!Capability.dyn_mutators}) outside
      [lib/dyn], [lib/amac] and [lib/pdes] — protocols are
      epoch-oblivious: they build schedules and read counters but never
      step them.

    Scans implementations and interfaces.  See DESIGN.md "Static
    analysis". *)

val rules : Rule.t list
(** A1, A2, A4, A5, A6, in order. *)

val family : Cli.family
(** [mmb_analyze check]; its [--inventory] prints the layer map: each
    parseable file's layer and the other layers it references — the edge
    list rule A1 ranges over. *)
