(** Instrumentation hooks for {!Runner}, dependency-inverted.

    The protocol layer must not depend on the observability layer (check
    A1: [mmb] sits below [obs] in the layer DAG), yet runs need spans,
    streaming compliance, engine gauges, and global engine-cost
    accounting.  This record is the seam: {!Runner} calls these hooks at
    the right moments with no knowledge of who listens, and [Obs.Run]
    builds records wired to an [Obs.Observer] / [Obs.Global].  The
    default, {!none}, does nothing. *)

type t = {
  want_trace : bool;
      (** ask the runner for a (retention-free) trace of the run even
          when compliance checking is off, so subscribers see events;
          [attach] is called only when this is set *)
  attach : Problem.tracker -> Dsim.Trace.t -> unit;
      (** called once, before the run, with the run's delivery ledger
          and the trace the run records into (the serial MAC's or the
          partitioned engine's merged one).  The ledger takes each
          delivery before the trace records it. *)
  checker : Amac.Compliance.t option;
      (** a checker [attach] subscribes, built for the run's dual, Fack
          and Fprog: a checked run takes its verdict from it *)
  wire_sim : Dsim.Sim.t -> unit;
      (** called once with the engine before the run starts *)
  on_event : Problem.tracker -> (time:float -> Dsim.Trace.event -> unit) option;
      (** called once, before the run, by engine-less runs (FMMB's round
          backends) with the run's ledger; the callback it returns takes
          their problem-level [Arrive]/[Deliver] lifecycle, each
          delivery after the ledger has it *)
  finish : allow_open:bool -> unit;
      (** called after the run; [allow_open] is false only when the run
          drained naturally and open instances would be a violation *)
  note_sim : Dsim.Sim.t -> unit;  (** fold engine counters into totals *)
  note_mac : bcasts:int -> rcvs:int -> acks:int -> forced:int -> unit;
}

val none : t
(** Every hook is a no-op; the default for un-instrumented runs. *)
