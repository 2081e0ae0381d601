(** An {e implementation} of the abstract MAC layer using the Decay
    protocol of Bar-Yehuda, Goldreich and Itai [2, 3] (the classic
    back-off-style strategy footnote 2 refers to).

    A node broadcasting a packet cycles through decay phases of
    [phase_slots] slots, transmitting in slot [s] of a phase with
    probability [2^-s]; after [phases_per_ack] phases the MAC acknowledges
    the packet to the sender — modeling a standard MAC that acks when its
    back-off protocol finishes, with {e no} feedback from receivers.
    Receivers hand each distinct packet up once.

    This realizes the paper's premise empirically (footnote 2): the
    {e progress} delay (a receiver hears {e something} while neighbors are
    broadcasting) is polylogarithmic in the contention, while the
    {e acknowledgment} delay — sized so that all reliable neighbors receive
    the specific packet w.h.p. — is linear in it.  Protocols written
    against {!Amac.Mac_handle} (e.g. BMMB) run over this MAC unchanged.

    The MAC is written once against {!Radio_intf.RADIO} ({!Over}) and
    instantiated here over the graph-collision radio ({!Slotted}); [Over
    (Sinr)] runs the identical protocol over the geometric SINR layer. *)

type params = {
  phase_slots : int;  (** L: slots per decay phase (probability 2^-s) *)
  phases_per_ack : int;  (** R: phases before the local ack *)
}

val default_params : n:int -> max_contention:int -> params
(** [L = ⌈log₂(contention)⌉ + 2], [R = Θ(contention · ln n)] — enough for
    every reliable neighbor to receive the packet w.h.p. before the ack. *)

exception Busy of int
(** Raised when a node broadcasts while its previous packet is unacked. *)

(** The MAC over any {!Radio_intf.RADIO} physical layer. *)
module Over (R : Radio_intf.RADIO) : sig
  type 'msg t

  val create :
    radio:'msg Amac.Message.t R.t ->
    dual:Graphs.Dual.t ->
    params:params ->
    rng:Dsim.Rng.t ->
    ?trace:Dsim.Trace.t ->
    unit ->
    'msg t
  (** [dual] supplies the reliable graph used for the ack-completeness
      audit and the handle's node count; for {!Sinr} radios pass the
      grey-zone dual the geometry induces. *)

  val handle : 'msg t -> 'msg Amac.Mac_handle.t
  val run : 'msg t -> max_slots:int -> stop:(unit -> bool) -> int
  val slot : 'msg t -> int
  val nominal_fack : 'msg t -> float
  val transmissions : 'msg t -> int

  val incomplete_acks : 'msg t -> int
  (** Packets acked before reaching every reliable neighbor — the
      implementation's w.h.p. failures (0 on a good run). *)
end

(** {1 Convenience instantiation over {!Slotted}} *)

type 'msg t

val create :
  dual:Graphs.Dual.t ->
  params:params ->
  rng:Dsim.Rng.t ->
  ?slot_len:float ->
  ?oracle:Slotted.edge_oracle ->
  ?trace:Dsim.Trace.t ->
  unit ->
  'msg t
(** Builds the slotted collision radio internally.  [slot_len] defaults to
    [1.]; [oracle] defaults to {!Slotted.oracle_bernoulli} with [p = 0.5]. *)

val handle : 'msg t -> 'msg Amac.Mac_handle.t
val run : 'msg t -> max_slots:int -> stop:(unit -> bool) -> int
val slot : 'msg t -> int
val nominal_fack : 'msg t -> float
val transmissions : 'msg t -> int
val collisions : 'msg t -> int
val incomplete_acks : 'msg t -> int

(** {1 Star contention (footnote 2's example)} *)

type star_contention = {
  first_reception : int option;
      (** the slot at which the hub first heard anything (Fprog-like) *)
  slowest : int;
      (** the slot by which the hub held every leaf's message (Fack-like) *)
  implemented_fack : float;  (** {!nominal_fack} of the MAC that ran *)
  transmissions : int;  (** {!val-transmissions} of the MAC that ran *)
  collisions : int;  (** {!val-collisions} of the MAC that ran *)
}

val star_contention : m:int -> seed:int -> max_slots:int -> star_contention
(** A hub and [m >= 1] leaves on a star, every leaf broadcasting its own
    message over a fresh Decay MAC ({!default_params}, RNG from [seed])
    at once, run until the hub holds all [m] messages or [max_slots]
    slots pass. *)
