(** The FMMB message-gathering subroutine (Section 4.3).

    Runs in 3-round periods.  Round 1: each MIS node, active with
    probability Θ(1/c²), announces itself.  Round 2: each non-MIS node that
    heard a G-neighbor's announcement and still owns messages broadcasts one
    of them; MIS nodes absorb every payload received from a G-neighbor.
    Round 3: an MIS node that absorbed a payload acknowledges it; a non-MIS
    node hearing a G-neighbor's acknowledgment drops that payload from its
    set.  After Θ(c²(k + log n)) periods every payload is owned by at least
    one MIS node w.h.p. (Lemma 4.6). *)

type params = {
  periods : int;
  p_active : float;  (** per-period MIS activation probability, Θ(1/c²) *)
  use_acks : bool;
      (** ablation switch: when [false] the third (acknowledgment) round is
          skipped, so non-MIS nodes never learn their payloads were absorbed
          and keep re-offering them — gathering still happens, but the
          subroutine cannot quiesce (E9) *)
}

val default_params : n:int -> k:int -> c:float -> params

type result = {
  mis_sets : Dsim.Bitset.t array;
      (** per-node owned payload set after gathering (MIS custody sets) *)
  leftover : int;
      (** payloads still stranded at non-MIS nodes (0 on a w.h.p. run) *)
  rounds_run : int;
  budget_rounds : int;
  data_broadcasts : int;
      (** round-2 payload broadcasts by non-MIS nodes (redundancy metric) *)
}

(** {1 Per-node steps}

    The subroutine's rules, one node and one round at a time, over
    per-node state.  [round] counts gather rounds: its residue mod 3 is
    the sub-round.  {!run} drives these steps on an engine of its own;
    [Fmmb.run_streaming] drives them in alternate periods of one
    engine. *)

type state

val init :
  p_active:float ->
  use_acks:bool ->
  rng:Dsim.Rng.t ->
  mis:bool array ->
  sets:Dsim.Bitset.t array ->
  on_payload:(node:int -> payload:int -> unit) ->
  state
(** [sets] holds each node's owned payloads: custody at MIS nodes,
    payloads not yet acknowledged elsewhere.  It is mutated in place.
    [on_payload] is invoked on every payload-bearing reception. *)

val receive :
  state -> node:int -> round:int -> Fmmb_msg.t Amac.Message.t list -> unit
(** [receive s ~node ~round inbox] reads [inbox], the deliveries of gather
    round [round], by that round's rules. *)

val act :
  state -> node:int -> round:int -> Fmmb_msg.t Amac.Enhanced_mac.action
(** The node's action in gather round [round]; an MIS node makes one
    [bernoulli] draw in each round [0 mod 3]. *)

val leftover : state -> int
(** Payloads still held by non-MIS nodes. *)

(** {1 The stage} *)

val run :
  dual:Graphs.Dual.t ->
  rng:Dsim.Rng.t ->
  policy:Fmmb_msg.t Amac.Enhanced_mac.round_policy ->
  params:params ->
  mis:bool array ->
  initial:int list array ->
  on_payload:(node:int -> payload:int -> unit) ->
  ?engine:Fmmb_msg.t Amac.Round_engine.t ->
  ?fprog:float ->
  unit ->
  result
(** [initial] gives each node's starting payload list (the MMB arrival
    assignment); [on_payload] is invoked on every payload-bearing reception
    (the delivery hook). *)
