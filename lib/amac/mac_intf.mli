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

type plan = private {
  ack : float array;
      (** [ack.(0)]: when the sender is acknowledged, seconds after the
          bcast; must lie in [[0, fack]] *)
  mutable receivers : int array;
  mutable delays : float array;
      (** the deliveries, by index [i < len]: [receivers.(i)] receives
          [delays.(i)] seconds after the bcast.  They must cover every
          G-neighbor of the sender with a delay at most the ack's, and
          may additionally include any subset of G'-only neighbors. *)
  mutable len : int;
}
(** A broadcast plan, written in place into unboxed columns.  The MAC
    owns one plan buffer, hands it to the policy as [bc_plan] (see
    {!bcast_ctx}) and {!reset}s it before every [pol_plan] call, so a
    policy starts from no deliveries and an unset ack: it must write
    the whole plan on every call, with {!set_ack} and the [deliver]
    functions, and must not keep the buffer past the call.  A plan
    whose ack is left unset fails the MAC's [[0, fack]] check.  The
    delays are unboxed, so storing one allocates nothing and the MAC
    posts each straight from its cell ({!Dsim.Sim.post}).  A float
    computed by the policy is boxed when passed to {!set_ack} or
    {!deliver}; a policy that must not allocate computes its ack in
    [ack.(0)] and draws its delays with {!deliver_uniform}, as
    [Schedulers.random_compliant] does. *)

val create_plan : unit -> plan
(** An empty buffer: no deliveries, ack unset (NaN). *)

val reset : plan -> unit
(** Empty the buffer and unset its ack; its columns are kept for reuse. *)

val set_ack : plan -> delay:float -> unit
(** Acknowledge the sender [delay] seconds after the bcast. *)

val deliver : plan -> receiver:int -> delay:float -> unit
(** Append a delivery to [receiver], [delay] seconds after the bcast.
    Allocates only when the columns grow. *)

val deliver_all : plan -> int array -> delay:float -> unit
(** {!deliver} to each of the receivers in order, all at [delay]. *)

val deliver_uniform : plan -> Dsim.Rng.t -> receiver:int -> unit
(** Append a delivery to [receiver] at a delay uniform in [[0, ack)]:
    one {!Dsim.Rng.float} draw bounded by [ack.(0)], made straight into
    the delivery's cell, so it allocates nothing but when the columns
    grow.  Set the ack first. *)

(** {1 Policy decision contexts}

    The MAC keeps one context of each kind and rewrites it for every
    call, so a policy must not keep a context, or the plan or columns
    it holds, past the call it was handed to. *)

type 'msg bcast_ctx = {
  mutable bc_sender : int;
  mutable bc_body : 'msg;
  mutable bc_g_neighbors : int array;  (** sender's neighbors in G *)
  mutable bc_g'_only_neighbors : int array;
      (** sender's neighbors in G' \ G *)
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
(** A broadcast an enhanced-model round may deliver to a receiver:
    {!Enhanced_mac}'s round policies choose a set of them. *)

type 'msg forced_ctx = {
  mutable fc_count : int;
      (** the candidates are positions [0] to [fc_count - 1] of the
          columns below: the open, not-yet-delivered-here instances from
          G'-neighbors, in descending uid order (the latest bcast
          first).  Never 0 when the watchdog fires; the columns may be
          longer than [fc_count]. *)
  mutable fc_bodies : 'msg array;  (** by position: the instance's body *)
  mutable fc_is_g_neighbor : bool array;
      (** by position: is the instance's sender a reliable (G) neighbor
          of the receiver? *)
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
    determined that a receiver must receive something now; the policy
    picks the victim instance by its position. *)

type 'msg policy = {
  pol_name : string;
  pol_plan : 'msg bcast_ctx -> unit;
      (** writes the broadcast's plan into [bc_plan] *)
  pol_forced : 'msg forced_ctx -> int;
      (** a candidate's position, in [[0, fc_count)]; the MAC refuses
          any other *)
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
