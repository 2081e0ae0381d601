(** The enhanced abstract MAC layer (Section 4), executed in lock-step
    rounds.

    The enhanced model adds to the standard one: access to time (timers),
    knowledge of [fack] and [fprog], and an [abort] interface.  FMMB uses
    exactly this extra power to run in synchronized rounds of length
    [fprog]: every broadcast is initiated at a round boundary and aborted at
    the next one.  This engine implements those derived round semantics
    directly:

    - in each round every node either broadcasts one message or listens;
    - a listener (or broadcaster) [j] whose broadcasting G'-neighborhood is
      [C_j] receives a subset of [C_j]'s messages chosen by the round
      policy, constrained by the progress bound: if at least one
      {e reliable} (G-)neighbor of [j] broadcasts, the subset is non-empty;
    - in particular when [|C_j| = 1] and that broadcaster is a G-neighbor,
      [j] necessarily receives that exact message — the property all three
      FMMB subroutines are built on;
    - every broadcast instance ends in [abort] (rounds are shorter than
      [fack], so no instance ever reaches its ack).

    Messages received in round [r] are presented to the automaton at the
    start of round [r+1]. *)

type 'msg action =
  | Broadcast of 'msg
  | Listen

type 'msg node_fn = round:int -> inbox:'msg Message.t list -> 'msg action
(** One node's behavior: called at the start of each round with the
    messages received during the previous round. *)

type 'msg round_policy = {
  rp_name : string;
  rp_deliver :
    rng:Dsim.Rng.t ->
    receiver:int ->
    must:bool ->
    candidates:'msg Mac_intf.candidate list ->
    'msg Mac_intf.candidate list;
      (** choose the delivered subset; must be non-empty when [must] *)
}

val generous : unit -> 'msg round_policy
(** Deliver every broadcasting G'-neighbor's message (no contention). *)

val minimal_random : unit -> 'msg round_policy
(** Deliver exactly one uniformly-chosen message when the progress bound
    requires a delivery, nothing otherwise. *)

val round_adversarial : unit -> 'msg round_policy
(** Deliver exactly one message when required, preferring one from an
    unreliable-only (G' \ G) neighbor. *)

type 'msg t

val create :
  dual:Graphs.Dual.t ->
  fprog:float ->
  policy:'msg round_policy ->
  rng:Dsim.Rng.t ->
  ?trace:Dsim.Trace.t ->
  ?msg_id:('msg -> int) ->
  unit ->
  'msg t
(** [trace] gets each round's [Bcast]s at its start and its [Rcv]s and
    [Abort]s at its end, their [msg] the body's [msg_id] (called only
    when a trace is attached), or the instance uid without one. *)

val set_node : 'msg t -> node:int -> 'msg node_fn -> unit
(** Install a node automaton, replacing any earlier one. *)

val round : 'msg t -> int
(** Number of completed rounds. *)

val now : 'msg t -> float
(** Virtual time, [round * fprog]. *)

val trace : 'msg t -> Dsim.Trace.t option

val run_round : 'msg t -> unit
(** Execute one lock-step round. *)

val run_until : 'msg t -> max_rounds:int -> stop:(unit -> bool) -> int
(** Run rounds until [stop ()] holds (checked before each round) or the
    budget is exhausted; returns the number of completed rounds. *)
