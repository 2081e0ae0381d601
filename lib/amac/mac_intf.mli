(** Interfaces between the MAC engines and (a) node automata, (b) message
    scheduler policies.

    The message scheduler of the abstract MAC layer model is an adversary:
    it decides non-deterministically which [G' \ G] neighbors receive each
    broadcast, in what order, and with what timing — constrained only by the
    five axioms of Section 3.2.1.  A {!policy} is one resolution of that
    non-determinism.  The engine ({!Standard_mac}) owns axiom enforcement:
    it validates every plan and runs per-receiver progress watchdogs, so a
    policy cannot produce a non-compliant execution, only a more or less
    hostile one. *)

(** {1 Broadcast plans} *)

type delivery = private { mutable receiver : int; mutable delay : float }
(** One planned message delivery, [delay] seconds after the bcast event:
    a cell of a {!plan} buffer, which later plans rewrite. *)

type plan = private {
  mutable ack_delay : float;
      (** when the sender is acknowledged; must lie in [[0, fack]] *)
  mutable cells : delivery array;
  mutable len : int;
      (** the deliveries are [cells.(0)] to [cells.(len - 1)]; they must
          cover every G-neighbor of the sender with [delay <= ack_delay],
          and may additionally include any subset of G'-only neighbors *)
}
(** A broadcast plan, written in place.  The MAC owns one plan buffer,
    hands it to the policy as [bc_plan] (see {!bcast_ctx}) and {!reset}s it
    before every [pol_plan] call, so a policy starts from no deliveries
    and an unset ack: it must write the whole plan on every call, with
    {!set_ack} and {!deliver}, and must not keep the buffer or its cells
    past the call.  A plan whose ack is left unset fails the MAC's
    [[0, fack]] check. *)

val create_plan : unit -> plan
(** An empty buffer: no deliveries, ack unset (NaN). *)

val reset : plan -> unit
(** Empty the buffer and unset its ack; its cells are kept for reuse. *)

val set_ack : plan -> delay:float -> unit
(** Acknowledge the sender [delay] seconds after the bcast. *)

val deliver : plan -> receiver:int -> delay:float -> unit
(** Append a delivery to [receiver], [delay] seconds after the bcast.
    Allocates only when the buffer grows; [delay] is kept as the boxed
    float it was passed. *)

val deliver_all : plan -> int array -> delay:float -> unit
(** {!deliver} to each of the receivers in order, all at [delay]. *)

(** {1 Policy decision contexts} *)

type 'msg bcast_ctx = {
  bc_sender : int;
  bc_uid : int;
  bc_body : 'msg;
  bc_now : float;
  bc_g_neighbors : int array;  (** sender's neighbors in G *)
  bc_g'_only_neighbors : int array;  (** sender's neighbors in G' \ G *)
  bc_fack : float;
  bc_fprog : float;
  bc_rng : Dsim.Rng.t;
  bc_plan : plan;  (** where [pol_plan] writes its plan, already reset *)
}
(** Everything a policy may consult when planning a broadcast. *)

type 'msg candidate = {
  cand_uid : int;
  cand_sender : int;
  cand_body : 'msg;
  cand_is_g_neighbor : bool;
      (** is the sender a reliable (G) neighbor of the receiver? *)
}

type 'msg forced_ctx = {
  fc_receiver : int;
  fc_now : float;
  fc_candidates : 'msg candidate list;
      (** open, not-yet-delivered-here instances from G'-neighbors;
          never empty when the watchdog fires *)
  fc_has_received : 'msg -> bool;
      (** has this receiver already received a message with this body
          (from any instance)?  Lets adversaries pick useless duplicates.
          Answered only under a policy that sets [pol_reads_received]:
          the MAC keeps the (body, receiver) history it reads from for
          such a policy alone, and under any other the call raises
          [Invalid_argument] rather than answer from no history. *)
  fc_rng : Dsim.Rng.t;
}
(** Context of a forced progress-bound delivery: the engine's watchdog
    determined that receiver [fc_receiver] must receive something now; the
    policy picks the victim instance. *)

type 'msg policy = {
  pol_name : string;
  pol_plan : 'msg bcast_ctx -> unit;
      (** writes the broadcast's plan into [bc_plan] *)
  pol_forced : 'msg forced_ctx -> 'msg candidate;
      (** must return one of [fc_candidates] *)
  pol_reads_received : bool;
      (** does [pol_forced] call [fc_has_received]?  Set by the policy's
          constructor; [true] makes the MAC intern every body and record
          every delivered (body, receiver) pair, which costs a hash
          lookup per bcast and a set insert per delivery. *)
}

(** {1 Node automata (standard model)} *)

type 'msg handlers = {
  on_rcv : src:int -> 'msg -> unit;
      (** the MAC layer delivered a message body (a [rcv] event); [src] is
          the transmitting node — real MAC layers expose the link-layer
          source address, and the paper's algorithms rely on being able to
          tell which neighbor (and whether a reliable one) a message came
          from *)
  on_ack : 'msg -> unit;
      (** the node's current broadcast completed (an [ack] event) *)
}
(** Standard-model nodes are event-driven automata: they react to [rcv] and
    [ack] events and may call the engine's [bcast] from inside a handler.
    Wake-up and environment events (e.g. MMB arrivals) are injected by the
    harness calling protocol functions directly. *)
