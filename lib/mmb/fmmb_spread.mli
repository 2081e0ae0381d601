(** The FMMB message-spreading subroutine (Section 4.4).

    Messages gathered at MIS nodes are disseminated over the overlay graph
    [H] (MIS nodes within 3 G-hops) by running BMMB over a simulated local
    broadcast: each phase consists of Θ(c² log n) periods of 3 rounds; in a
    period an active MIS node broadcasts its current message and every node
    that hears a G-neighbor's copy relays it for the two following rounds,
    pushing it 3 G-hops — to every H-neighbor w.h.p. (Lemma 4.7).  Each MIS
    node sends each of its messages in one phase, FIFO over [Mv \ M'v];
    after [D_H + k] phases all MIS nodes (and, through the relays and the
    overlay broadcasts, all nodes) hold all messages w.h.p. (Lemma 4.8). *)

type params = {
  periods_per_phase : int;
  p_active : float;  (** per-period MIS activation probability, Θ(1/c²) *)
  relays : bool;
      (** ablation switch: when [false] nodes do not relay in rounds 2-3,
          so overlay messages reach only direct G-neighbors and MIS nodes
          at overlay distance 2-3 starve (E9) *)
}

val default_params : n:int -> c:float -> params

type result = {
  rounds_run : int;
  phases_run : int;
}

(** {1 Per-node steps}

    The subroutine's rules, one node and one round at a time, over
    per-node state.  [round] counts spread rounds: its residue mod 3 is
    the sub-round, and a phase starts at each multiple of
    [3 * periods_per_phase].  {!run} drives these steps on an engine of
    its own; [Fmmb.run_streaming] drives them in alternate periods of
    one engine. *)

type state

val init :
  params:params ->
  rng:Dsim.Rng.t ->
  mis:bool array ->
  sets:Dsim.Bitset.t array ->
  on_payload:(node:int -> payload:int -> unit) ->
  state
(** [sets] holds each node's owned payloads; MIS nodes add what they
    hear.  [on_payload] is invoked on every overlay reception. *)

val receive :
  state -> node:int -> round:int -> Fmmb_msg.t Amac.Message.t list -> unit
(** [receive s ~node ~round inbox] reads [inbox], the deliveries of spread
    round [round]: an MIS node keeps each message, and a reliable copy
    heard in a round [0] or [1 mod 3] arms the node's relay. *)

val act :
  state -> node:int -> round:int -> Fmmb_msg.t Amac.Enhanced_mac.action
(** The node's action in spread round [round]; an MIS node makes one
    [bernoulli] draw in each round [0 mod 3]. *)

(** {1 The stage} *)

val run :
  dual:Graphs.Dual.t ->
  rng:Dsim.Rng.t ->
  policy:Fmmb_msg.t Amac.Enhanced_mac.round_policy ->
  params:params ->
  mis:bool array ->
  sets:Dsim.Bitset.t array ->
  on_payload:(node:int -> payload:int -> unit) ->
  stop:(unit -> bool) ->
  max_phases:int ->
  ?engine:Fmmb_msg.t Amac.Round_engine.t ->
  ?trace:Dsim.Trace.t ->
  ?fprog:float ->
  unit ->
  result
(** [sets] holds each node's owned payload set (pass the gather stage's
    [mis_sets]; mutated in place as messages spread); [stop] is the external
    completion check (the tracker), consulted between rounds. *)
