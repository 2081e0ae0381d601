(** End-to-end wiring: network × protocol × scheduler → executed run with
    metrics.  This is the entry point examples, tests, and benchmarks use.

    Every BMMB run, serial or partitioned, batch or online, is wired by
    {!drive}, and no run result carries a trace: a caller that wants the
    entries attaches a trace that keeps them through the instrument.
    One function runs every serial BMMB execution, whatever its
    arrivals, and returns the one record below: {!run_bmmb} and
    {!run_bmmb_online} are its two entry points. *)

val drive :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  check_compliance:bool ->
  instrument:Instrument.t ->
  ledger:(Dsim.Trace.t -> Problem.tracker) ->
  (Dsim.Trace.t option -> bool * 'a) ->
  'a * Amac.Compliance.violation list * string list
(** [drive ... execute] runs [execute] on the trace the run records into
    (keeping no entries; [None] if nothing listens) between attaching and
    finishing [instrument]; [execute] says whether open instances are
    allowed.  [ledger] gives the run's ledger for [instrument.attach]
    and is called only then.  Under [check_compliance],
    [instrument.checker] (or one of its own) and a {!Properties} checker
    take each entry as it comes, and their findings are returned, the
    axioms' as {!Amac.Compliance.audit} would return them. *)

type bmmb_result = {
  complete : bool;
  time : float;
      (** MMB completion time, when the last message finished (meaningful
          when [complete]; the makespan of an online run) *)
  upper_bound : float;
      (** the exact applicable paper bound for this run; [infinity] for
          {!run_bmmb_online}, since no theorem covers online arrivals *)
  within_bound : bool;
  bcasts : int;
  rcvs : int;
  acks : int;
  forced : int;  (** watchdog-injected progress deliveries *)
  duplicate_deliveries : int;  (** MMB spec violations (must be 0) *)
  deliveries : int;  (** distinct (node, message) deliveries *)
  compliance_violations : Amac.Compliance.violation list;
      (** non-empty only when [check_compliance] and the engine misbehaved *)
  outcome : Dsim.Sim.outcome;
  events_executed : int;
      (** engine callbacks executed (the profiler's event count) *)
  latencies : (int * float) list;
      (** [(msg, completion - arrival)] per completed message, in arrival
          order ({!Problem.latencies}); under batch arrivals, each
          message's completion time *)
  spec_violations : string list;
      (** MMB-specification findings ({!Properties}), when
          [check_compliance] was set *)
}

val run_bmmb :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:int Amac.Mac_intf.policy ->
  assignment:Problem.assignment ->
  seed:int ->
  ?discipline:Bmmb.discipline ->
  ?check_compliance:bool ->
  ?max_events:int ->
  ?dyn:Dyn.Dual.t ->
  ?instrument:Instrument.t ->
  ?setup:(Dsim.Sim.t -> unit) ->
  unit ->
  bmmb_result
(** Runs BMMB to natural quiescence (the protocol terminates on its own once
    every queue drains), so the full execution — including the tail after
    completion — is checked when [check_compliance] is set.
    [max_events] (default [50_000_000]) is a runaway backstop.

    [dyn] hands the MAC a time-varying unreliable layer ([dual] must be
    its base/union dual).  The protocol is untouched — epochs advance
    only inside the MAC's plan-time consult (check A6) — and the static
    axiom checker stays sound because every epoch's G' is a subset of
    the base.

    [instrument] (default {!Instrument.none}) receives the MAC's trace,
    the engine, the run's counter totals, and a finish signal with
    [allow_open] set iff the run did not drain — [Obs.Run] builds
    instruments wired to observers and the global engine-cost registry;
    this layer knows nothing about them (check A1).  [setup] runs against
    the simulation after wiring but before the arrivals are scheduled —
    the hook for progress tickers and wall-clock injection. *)

val run_bmmb_online :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:int Amac.Mac_intf.policy ->
  arrivals:Problem.timed_assignment ->
  seed:int ->
  ?discipline:Bmmb.discipline ->
  ?check_compliance:bool ->
  ?max_events:int ->
  ?dyn:Dyn.Dual.t ->
  ?instrument:Instrument.t ->
  ?setup:(Dsim.Sim.t -> unit) ->
  unit ->
  bmmb_result
(** Online MMB, the variant of the paper's footnote 4: BMMB with each
    message injected at its own arrival time (the protocol is unchanged —
    it is event-driven and never assumed batch arrivals), through the
    same run as {!run_bmmb}.  [time] is the makespan and [latencies]
    the per-message latencies; [upper_bound] is [infinity], since no
    theorem covers online arrivals, so [within_bound] is [complete].
    Arguments as in {!run_bmmb}. *)

(** {1 Partitioned BMMB (lib/pdes)} *)

type pdes_result = {
  pd_complete : bool;
  pd_time : float;
  pd_upper_bound : float;
  pd_within_bound : bool;
  pd_bcasts : int;
  pd_rcvs : int;
  pd_acks : int;
  pd_deliveries : int;  (** distinct (node, message) deliveries *)
  pd_remote : int;  (** deliveries routed across partitions *)
  pd_events : int;
  pd_windows : int;  (** barrier windows (0 on the serial path) *)
  pd_heap_high_water : int;  (** max pending events in any partition heap *)
  pd_partitions : int;
  pd_domains : int;
  pd_cut_edges : int;
  pd_compliance_violations : Amac.Compliance.violation list;
      (** as {!bmmb_result}'s [compliance_violations] *)
  pd_spec_violations : string list;
      (** as {!bmmb_result}'s [spec_violations] *)
}

val run_bmmb_pdes :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:int Amac.Mac_intf.policy ->
  assignment:Problem.assignment ->
  seed:int ->
  partitions:int ->
  domains:int ->
  ?mk_dyn:(unit -> Dyn.Dual.t) ->
  ?check_compliance:bool ->
  ?instrument:Instrument.t ->
  unit ->
  pdes_result
(** BMMB on the horizon-parallel engine ({!Pdes.Engine}).  [partitions]
    is a model parameter: it selects the execution (instance ids, RNG
    streams, delivery times), and [domains] only maps partitions onto
    worker domains — results and trace bytes are identical for every
    [1 <= domains <= partitions].  [partitions = 1] delegates to
    {!run_bmmb} with [policy] (the exact serial engine and trace);
    [partitions >= 2] runs the fused full-coverage engine and ignores
    [policy].  [mk_dyn] builds one private dynamic wrapper per
    partition.  [check_compliance] and [instrument] are {!run_bmmb}'s:
    at [partitions >= 2] the instrument's subscribers see the merged
    trace window by window, on the calling domain, and its [wire_sim],
    [note_sim] and [note_mac] are not called (there is no one engine).
    Raises {!Pdes.Engine.Domains_exceed_partitions} when
    [domains > partitions] and [Invalid_argument] when [Fprog > Fack]. *)

type fmmb_result = {
  fmmb : Fmmb.result;
  shape_bound : float;
      (** the unit-coefficient Theorem-4.1 round shape for this instance;
          [infinity] for {!run_fmmb_online}, since no theorem covers
          online arrivals *)
  duplicate_deliveries' : int;
  latencies' : (int * float) list;
      (** as {!bmmb_result}'s [latencies] ({!Problem.latencies}) *)
}

val run_fmmb :
  dual:Graphs.Dual.t ->
  fprog:float ->
  c:float ->
  policy:Fmmb_msg.t Amac.Enhanced_mac.round_policy ->
  assignment:Problem.assignment ->
  seed:int ->
  ?backend:Fmmb.backend ->
  ?params:Fmmb.params ->
  ?max_spread_phases:int ->
  ?instrument:Instrument.t ->
  unit ->
  fmmb_result
(** Staged FMMB ({!Fmmb.run}).  The problem-level [Arrive]/[Deliver]
    lifecycle feeds [instrument.on_event], each delivery at its round's
    time; [Obs.Run.fmmb] points it at an observer's spans.  No checker
    applies to FMMB, so [instrument.checker] is not read: its per-stage
    engines restart instance uids and clocks. *)

val run_fmmb_online :
  dual:Graphs.Dual.t ->
  fprog:float ->
  c:float ->
  policy:Fmmb_msg.t Amac.Enhanced_mac.round_policy ->
  arrivals:Problem.timed_assignment ->
  seed:int ->
  max_rounds:int ->
  fmmb_result
(** Streaming FMMB ({!Fmmb.run_streaming}) with each message injected at
    its own arrival time, returning the record {!run_fmmb} returns:
    [latencies'] are measured from each arrival and [shape_bound] is
    [infinity].  Runs until every message completes or [max_rounds]
    stream rounds elapse. *)
