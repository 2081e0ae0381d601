(** The standard abstract MAC layer (Sections 2 and 3.2.1), as a
    continuous-time discrete-event engine.

    The engine owns enforcement of the five axioms:

    - {b receive correctness}: each broadcast instance delivers at most once
      per receiver, only to G'-neighbors, and never after its ack;
    - {b ack correctness}: an instance acks only after delivering to every
      G-neighbor of the sender;
    - {b termination}: every bcast is eventually acked (the standard model
      has no abort);
    - {b acknowledgment bound}: acks come within [fack] of the bcast;
    - {b progress bound}: a per-receiver watchdog guarantees that whenever
      some reliable neighbor has an open instance and no open contending
      instance has yet delivered to the receiver, a delivery from the
      contending set is forced within [fprog].

    The {!Mac_intf.policy} resolves the model's scheduler non-determinism
    inside that envelope; plans violating the axioms are rejected with
    [Invalid_argument] (a policy bug, not a model behavior). *)

type 'msg t

exception Not_well_formed of string
(** Raised when a node violates user-well-formedness, e.g. broadcasts while
    a previous broadcast is still unacknowledged, or aborts when nothing is
    in flight. *)

val create :
  sim:Dsim.Sim.t ->
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:'msg Mac_intf.policy ->
  rng:Dsim.Rng.t ->
  ?eps_abort:float ->
  ?dyn:Dyn.Dual.t ->
  ?trace:Dsim.Trace.t ->
  ?msg_id:('msg -> int) ->
  unit ->
  'msg t
(** Requires [0 < fprog <= fack].  [eps_abort] (default [0.]) bounds how
    long after an {!abort} a pending delivery of the aborted instance may
    still occur (the model's ε_abort).  [msg_id] projects a payload to the
    MMB message id recorded in trace [msg] fields (so MAC events link to
    the [Arrive]/[Deliver] lifecycle for span derivation); without it the
    instance uid is recorded, as the compliance auditor only needs
    [instance].

    [dyn] makes the unreliable layer time-varying: at each [bcast] the
    MAC consults the schedule for the dual in force now (this is the
    only place epochs advance — protocols above stay link- and
    epoch-oblivious, check A6) and feeds the adversary's oracle with
    delivered-set probes.  [dual] must be the schedule's base (union)
    dual.  Every epoch's G' is a subset of its G', so a watchdog looks
    for its candidates among the receiver's G'-neighbours there; and
    since schedules never touch [G], per-delivery reliability and the
    watchdog's [is_reliable] stay epoch-invariant.  Each instance
    pins the dual it opened under, so open/terminate bookkeeping stays
    balanced across churn. *)

val attach : 'msg t -> node:int -> 'msg Mac_intf.handlers -> unit
(** Install a node automaton.  Must be called once per node before it can
    broadcast or receive. *)

val bcast : 'msg t -> node:int -> 'msg -> unit
(** The acknowledged local broadcast primitive.  Raises {!Not_well_formed}
    if the node already has an outstanding broadcast. *)

val busy : 'msg t -> node:int -> bool
(** Is the node's previous broadcast still unacknowledged? *)

val abort : 'msg t -> node:int -> unit
(** Abort the node's broadcast in progress ({b enhanced model only} —
    Section 2 adds this interface, plus knowledge of {!fack}/{!fprog} and
    access to time, to form the enhanced abstract MAC layer; standard-model
    algorithms must never call it).  The instance terminates immediately
    with an [abort] event: the sender becomes free, planned deliveries more
    than [eps_abort] in the future are cancelled, and already-imminent ones
    (within [eps_abort]) may still land.  Raises {!Not_well_formed} if the
    node has no broadcast in flight. *)

val sim : 'msg t -> Dsim.Sim.t

val env_at : 'msg t -> time:float -> (unit -> unit) -> unit
(** Inject an environment event (an arrival, a protocol kickoff) at an
    absolute time on the MAC's engine.  This is the sanctioned injection
    point for layers above the MAC — protocols must not schedule engine
    events themselves (check A4). *)

val dual : 'msg t -> Graphs.Dual.t
(** The base (union) dual — epoch-invariant. *)

val dyn : 'msg t -> Dyn.Dual.t option
(** The time-varying schedule wrapper, when one was given. *)

val trace : 'msg t -> Dsim.Trace.t option
val fack : 'msg t -> float
val fprog : 'msg t -> float

(** {1 Statistics} *)

val bcast_count : 'msg t -> int
val rcv_count : 'msg t -> int
val ack_count : 'msg t -> int
val abort_count : 'msg t -> int

val forced_count : 'msg t -> int
(** Deliveries injected by the progress watchdog. *)
