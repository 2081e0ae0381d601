(** Lock-step rounds {e constructed} from the enhanced model's primitives.

    Section 4.1: "The FMMB algorithm divides time into lock-step rounds
    each of length Fprog.  This can be achieved by leveraging the ability
    of a node to use time and abort a broadcast in progress."  This module
    is that construction, executed on the continuous {!Standard_mac} engine
    rather than on {!Enhanced_mac}'s direct round semantics:

    - at each round boundary every in-flight broadcast is aborted (the
      timer), inboxes are swapped, and each automaton chooses its next
      action; broadcasts initiated at a boundary run for exactly [fprog];
    - receptions happen through the engine's ordinary machinery: the
      {!policy} plans reliable deliveries at [fack] (which the abort always
      preempts), so in [Minimal] mode the only receptions are the ones the
      progress watchdog forces — at least one per receiver with a
      broadcasting reliable neighbor, exactly the round guarantee FMMB's
      analysis uses; [Generous] mode additionally plans early deliveries to
      the whole G'-neighborhood (no contention).

    Automata are the same [Enhanced_mac.node_fn] functions, so protocol
    code runs unchanged over either execution (see {!Round_engine}). *)

type mode =
  | Minimal  (** only watchdog-forced receptions: worst-case contention *)
  | Generous  (** every broadcast reaches its whole G'-neighborhood *)

val policy : mode:mode -> 'msg Mac_intf.policy
(** The scheduler policy the synchronizer requires on its underlying
    {!Standard_mac} (acks at [fack], reliable deliveries never early). *)

type 'msg t

val create : mac:'msg Standard_mac.t -> unit -> 'msg t
(** The underlying engine must have been created with {!policy} (or any
    policy that never delivers before an abort can strike) and with
    [fprog < fack].  [create] attaches handlers to every node of [mac]. *)

val set_node : 'msg t -> node:int -> 'msg Enhanced_mac.node_fn -> unit
(** Install a node automaton, replacing any earlier one. *)

val mac : 'msg t -> 'msg Standard_mac.t
(** The engine the rounds are constructed on. *)

val round : 'msg t -> int
(** Completed rounds. *)

val run_until : 'msg t -> max_rounds:int -> stop:(unit -> bool) -> int
(** Run rounds until [stop ()] (checked at boundaries) or the budget is
    exhausted; aborts any final in-flight broadcasts so the underlying
    simulation drains.  Returns the number of rounds executed. *)
