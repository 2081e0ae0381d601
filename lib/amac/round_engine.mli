(** A uniform facade over the two executions of the enhanced model's
    lock-step rounds:

    - {!Enhanced_mac} — the direct round-semantics engine; and
    - {!Round_sync} — rounds {e constructed} from the continuous engine's
      abort + timer primitives, as Section 4.1 prescribes.

    FMMB's subroutines are written against this facade, so the same
    algorithm code runs over both — which is itself a reproduction claim:
    the round abstraction the analysis uses is implementable from the
    enhanced model's primitives. *)

type 'msg t = {
  set_node : node:int -> 'msg Enhanced_mac.node_fn -> unit;
  run_until : max_rounds:int -> stop:(unit -> bool) -> int;
      (** run rounds until [stop] (checked at round boundaries) or the
          budget; returns rounds executed *)
  rounds_done : unit -> int;
  now : unit -> float;
      (** [round * fprog] on {!Enhanced_mac}, the simulator's clock on
          {!Round_sync} *)
  trace : Dsim.Trace.t option;
}

val of_enhanced : 'msg Enhanced_mac.t -> 'msg t

val of_round_sync : 'msg Round_sync.t -> 'msg t

val stage : 'msg t -> 'msg t
(** A view for a stage that starts now: its automata's rounds and its
    [rounds_done] count from the engine's next round, as on a fresh
    engine, while the clock, trace and instance uids run on.  Its first
    inbox holds the previous stage's last round's receptions. *)

val record : 'msg t -> Dsim.Trace.event -> unit
(** Record a problem-level event ([Arrive]/[Deliver]) on the engine's
    trace at its clock, as {!Mac_handle.record} does (check A4). *)
