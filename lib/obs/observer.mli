(** One-stop observability for a simulated run: a {!Metrics} registry, a
    {!Spans} deriver, an optional streaming {!Amac.Compliance} checker,
    and engine gauges, exported together as JSONL.

    Typical wiring (what {!Run.instrument} does under [?obs]):
    {[
      let obs = Observer.create ~n ~dual ~fack ~fprog () in
      Observer.attach obs ledger trace;  (* subscribe spans + checker *)
      Observer.wire_sim obs sim;      (* engine gauges *)
      (* ... run ... *)
      ignore (Observer.finish obs ~allow_open:(outcome <> Drained));
      Observer.to_file obs "metrics.jsonl"
    ]} *)

type t

val create :
  n:int ->
  ?dual:Graphs.Dual.t ->
  ?fack:float ->
  ?fprog:float ->
  ?dyn:Dyn.Dual.t ->
  ?on_violation:(Dsim.Trace.entry option -> Amac.Compliance.violation -> unit) ->
  ?meta:(string * Dsim.Json.t) list ->
  unit ->
  t
(** [n] is the node count, unused since the run's ledger judges the
    spans' completion ({!attach}).  Passing [dual] (with [fack] and
    [fprog] — [Invalid_argument] if either is missing) enables the
    streaming compliance checker; [dyn] additionally enables its
    epoch-aware axiom variants (see {!Amac.Compliance.create}).  [meta]
    fields are appended to the export's leading meta line.

    With the checker on, the registry also carries [monitor.violations]
    (counter, bumped before [on_violation] fires), [mac.progress_gap] (a
    histogram of the checker's empirical starvation gaps; its maximum is
    the empirical Fprog) and, with [dyn], [monitor.churned] (counter of
    churn-explained deliveries, settled by {!finish}). *)

val metrics : t -> Metrics.t
val spans : t -> Spans.t
val monitor : t -> Amac.Compliance.t option

val attach : t -> Mmb.Problem.tracker -> Dsim.Trace.t -> unit
(** Subscribe the span deriver and checker to a trace's record stream
    (works on a trace that keeps no entries); the spans judge completion
    by the run's delivery ledger. *)

val wire_sim : t -> Dsim.Sim.t -> unit
(** Register engine gauges: [engine.executed], [engine.pending],
    [engine.heap_high_water], [engine.heap_pushes], [engine.cancelled],
    plus per-category [engine.cat.<name>.events] and volatile
    [engine.cat.<name>.wall_s]. *)

val finish : ?allow_open:bool -> t -> Amac.Compliance.violation list
(** Finalize the checker (no-op without one); pass [~allow_open:true] when
    the run was truncated rather than drained.  Idempotent: later calls
    return the first call's verdict. *)

val verdict_line : t -> Dsim.Json.t
(** The [{"kind":"compliance",...}] summary object. *)

val jsonl : ?include_volatile:bool -> t -> string list
(** The full export, one JSON document per line: a
    [{"kind":"meta","schema":"mmb-metrics/1"}] header, every metric
    (sorted by name), per-message span lines, and the compliance verdict.
    Deterministic across same-seed runs unless [include_volatile]. *)

val to_file : ?include_volatile:bool -> t -> string -> unit
(** Write {!jsonl} to a file. *)

val progress_line : t -> sim:Dsim.Sim.t -> string
(** One-line frontier/heap status for [--progress]. *)
