(** Observed runs: the {!Mmb.Instrument} seam wired to observability.

    The protocol layer sits below this one in the layer DAG (check A1),
    so [Mmb.Runner] and [Mmb.Scenario] cannot reference observers or the
    global engine-cost registry; they take an {!Mmb.Instrument.t}
    instead.  {!instrument} builds the one every harness passes, and the
    wrappers below mirror the runner's signatures with it.  Call
    [Mmb.Runner] directly when none of this is wanted. *)

val instrument :
  ?obs:Observer.t ->
  ?attach:(Mmb.Problem.tracker -> Dsim.Trace.t -> unit) ->
  unit ->
  Mmb.Instrument.t
(** Every serial run's engine and MAC counters fold into {!Global} (the
    campaign runner's per-job deltas and the benchmark read them; the
    partitioned engine has no one engine and folds nothing); with
    neither argument that is all, and the record is a constant.
    Otherwise the run's event stream is subscribed live, whichever
    engine produces it: the serial MAC trace, the partitioned engine's
    merged trace (recorded window by window, on the calling domain), or
    FMMB's round engine's trace, its lifecycle included (each delivery
    at its round's time).  Each subscriber also gets the run's delivery
    ledger ({!Mmb.Instrument.attach}), by which spans, {!Tracing.Sim}
    and {!Provenance} judge completion.

    - [obs]: spans and the streaming checker subscribe, engine gauges
      are wired (serial engines only), and the observer is finished with
      [allow_open] set iff the run did not drain.  Its checker is the
      instrument's [checker], the one a checked run takes its verdict
      from ({!Mmb.Runner.drive}), so build it for the run's dual, Fack
      and Fprog.  For FMMB, create it without [dual]: the checker knows
      only the standard model.
    - [attach] receives the run's ledger and the trace it records
      into, before the run, to subscribe streaming consumers
      ({!Tracing.Sim}, {!Provenance}, a [Dsim.Trace_io] sink). *)

val bmmb :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:int Amac.Mac_intf.policy ->
  assignment:Mmb.Problem.assignment ->
  seed:int ->
  ?discipline:Mmb.Bmmb.discipline ->
  ?check_compliance:bool ->
  ?max_events:int ->
  ?dyn:Dyn.Dual.t ->
  ?obs:Observer.t ->
  ?setup:(Dsim.Sim.t -> unit) ->
  unit ->
  Mmb.Runner.bmmb_result
(** [dyn] as in {!Mmb.Runner.run_bmmb}; pass the same wrapper to the
    observer ({!Observer.create}'s [?dyn]) for epoch-aware monitoring. *)

val bmmb_online :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:int Amac.Mac_intf.policy ->
  arrivals:Mmb.Problem.timed_assignment ->
  seed:int ->
  ?discipline:Mmb.Bmmb.discipline ->
  ?check_compliance:bool ->
  ?max_events:int ->
  ?dyn:Dyn.Dual.t ->
  ?obs:Observer.t ->
  ?setup:(Dsim.Sim.t -> unit) ->
  unit ->
  Mmb.Runner.bmmb_result
(** {!Mmb.Runner.run_bmmb_online}: the record {!bmmb} returns, with
    [upper_bound = infinity] and per-message latencies measured from
    each arrival. *)

val fmmb :
  dual:Graphs.Dual.t ->
  fprog:float ->
  c:float ->
  policy:Mmb.Fmmb_msg.t Amac.Enhanced_mac.round_policy ->
  assignment:Mmb.Problem.assignment ->
  seed:int ->
  ?backend:Mmb.Fmmb.backend ->
  ?params:Mmb.Fmmb.params ->
  ?max_spread_phases:int ->
  ?obs:Observer.t ->
  unit ->
  Mmb.Runner.fmmb_result
(** [obs] as in {!instrument}.  On the [Continuous] backend the run's
    one simulator's counters fold into {!Global} (through [note_sim]);
    the [Rounds] backend has no simulator and folds nothing. *)
