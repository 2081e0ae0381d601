(** The Fast Multi-Message Broadcast algorithm (Section 4, Theorem 4.1).

    Composes the three subroutines — MIS construction, gathering, spreading
    — on the enhanced abstract MAC layer, in lock-step rounds of length
    [fprog].  Under a grey-zone restricted G' it solves MMB w.h.p. in
    [O((D log n + k log n + log³ n) · Fprog)] time, with no [Fack] term.

    One driver runs both compositions on one round engine, each stage
    on a view of it whose rounds count from the stage's first
    ({!Amac.Round_engine.stage}): {!run} (MIS, then gather, then
    spread) and {!run_streaming} (MIS, then gather and spread periods
    alternating).  Both dedup payload receptions through the [tracker]
    ({!Problem.deliver}: a node's first copy of a payload is its
    delivery), stamp each delivery at the engine's clock in the round
    it happens in, and return {!result}.

    Faithfulness notes (also in DESIGN.md): nodes know [n] and the
    grey-zone constant [c] (as the paper's round budgets assume), and the
    staged gather budget is computed from [k]; the paper leaves the
    k-unknown phase-transition mechanism unspecified, and
    {!run_streaming} needs none.  Spreading runs until the
    external tracker observes completion (nodes themselves never detect
    it), bounded by a [D+k]-proportional phase budget. *)

type params = {
  c : float;  (** grey-zone constant used to size budgets *)
  mis : Fmmb_mis.params;
  gather : Fmmb_gather.params;
  spread : Fmmb_spread.params;
}

(** How the lock-step rounds are executed. *)
type backend =
  | Rounds
      (** {!Amac.Enhanced_mac}: direct round semantics (default) *)
  | Continuous of Amac.Round_sync.mode
      (** {!Amac.Round_sync}: rounds constructed from the continuous
          engine's abort + timer primitives, as Section 4.1 prescribes;
          the [policy] argument is superseded by the mode's scheduler *)

val default_params : n:int -> k:int -> c:float -> params

type result = {
  complete : bool;
  rounds_mis : int;
  rounds_gather : int;  (** streaming: the rounds of its gather periods *)
  rounds_spread : int;  (** streaming: the rounds of its spread periods *)
  total_rounds : int;
  time : float;  (** [total_rounds * fprog] *)
  mis_valid : bool;  (** was the constructed set a valid MIS of G? *)
  mis_size : int;
  gather_leftover : int;
      (** payloads still held by non-MIS nodes when gathering ended *)
}

val run :
  dual:Graphs.Dual.t ->
  fprog:float ->
  rng:Dsim.Rng.t ->
  policy:Fmmb_msg.t Amac.Enhanced_mac.round_policy ->
  params:params ->
  assignment:Problem.assignment ->
  tracker:Problem.tracker ->
  ?backend:backend ->
  ?max_spread_phases:int ->
  ?trace:Dsim.Trace.t ->
  ?note_sim:(Dsim.Sim.t -> unit) ->
  unit ->
  result
(** The staged composition.  [max_spread_phases] defaults to
    [4 * (D + k) + 8].  [trace] receives the run's one stream: the
    [Arrive]s, then the three stages' MAC entries, their uids and clock
    running on across stages and their [msg] the body's payload or [-1]
    for a control body, and each [Deliver] at the engine's clock
    ([round * fprog] on [Rounds], the simulator's on [Continuous]).
    [note_sim] gets the [Continuous] backend's one simulator after the
    run, so engine-cost accounting ({!Instrument.note_sim} →
    [Obs.Global]) covers FMMB runs; the [Rounds] backend notes nothing. *)

val run_streaming :
  dual:Graphs.Dual.t ->
  fprog:float ->
  rng:Dsim.Rng.t ->
  policy:Fmmb_msg.t Amac.Enhanced_mac.round_policy ->
  c:float ->
  arrivals:Problem.timed_assignment ->
  tracker:Problem.tracker ->
  max_rounds:int ->
  result
(** The k-oblivious streaming composition, for online arrivals (the
    paper's footnote 4), on the [Rounds] backend.  The gather budget is
    the only value the staged algorithm derives from [k]; after the MIS
    stage, gather periods and spread periods instead alternate on one
    engine forever (stream round [r] is in period [r / 3]; even periods
    gather, odd ones spread), running {!Fmmb_gather}'s and
    {!Fmmb_spread}'s steps on one payload set per node.  A non-MIS node
    offers a pending payload whenever probed and retires it when
    acknowledged; an MIS node spreads its custody, picking the next
    unsent message at each spread-phase boundary.  Each subroutine runs
    at half speed, so on a batch workload it costs at most a factor 2
    in rounds over {!run}, preserving Theorem 4.1's shape.

    Each arrival is injected at the stream round matching its time
    (arrivals during the MIS stage join at stream round 0), and is
    gathered and spread like any other.  Runs until the tracker
    completes or [max_rounds] stream rounds elapse. *)
