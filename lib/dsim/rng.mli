(** Deterministic random-number generation.

    Every source of randomness in the library flows through a value of this
    type, created from an explicit integer seed, so that simulations,
    experiments, and property tests are reproducible bit-for-bit from their
    printed seeds.  [split] derives an independent stream, used to give each
    node (or each subsystem) its own generator — mirroring the paper's lower
    bound convention of handing each node its random bits up front. *)

type t = private Random.State.t
(** A stdlib generator: its draws are the stdlib's, bit for bit, and a
    test can compare them with [Random.State] on a copy of the state. *)

val create : seed:int -> t
(** Generator deterministically derived from [seed]. *)

val split : t -> t
(** A new generator whose future output is independent of the parent's;
    advances the parent. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); requires [bound > 0].
    Allocates nothing. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound): bit for bit
    [Random.State.float] on the same state.  Allocates only the float
    it returns, which a caller in another module receives boxed. *)

val float_cell : t -> float array -> int -> unit
(** [float_cell t a i] sets [a.(i)] to [float t a.(i)]: the cell holds
    the bound before the call and the draw after it.  It makes the same
    draw as {!float} and allocates nothing, so a hot caller draws
    straight into an unboxed float array. *)

val bool : t -> bool
(** A fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to [0,1]):
    for [0 < p < 1] it is [Random.State.float t 1. < p] on the same
    state, and otherwise it draws nothing.  Allocates nothing. *)

val bits : t -> n:int -> bool array
(** [bits t ~n] is an array of [n] fair coin flips (e.g. the 4·log n election
    bit-strings of the FMMB MIS subroutine). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
