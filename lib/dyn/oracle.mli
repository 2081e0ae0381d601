(** The adversary's knowledge map.

    Records which nodes have received which messages, fed from the MAC's
    delivered-set probes (via [Dyn.Dual.note_bcast]/[note_delivery]) and
    read by the adversarial schedule to locate the message frontier —
    the generalization of the two-line adversary's "has the value
    crossed yet?" test (Theorem 3.17) to arbitrary duals.

    Capability note (check rule A6): {!note} is the only mutator
    here, and it may be called only from lib/dyn and lib/amac; the
    readers are sanctioned everywhere. *)

type t

val create : n:int -> t
(** Empty map over nodes [0..n-1].  Requires [n >= 1]. *)

val n : t -> int

val note : t -> node:int -> msg:int -> unit
(** Record that [node] knows message [msg] (a small non-negative id —
    the MAC feeds its [mid] projection).  Idempotent.  Raises
    [Invalid_argument] on out-of-range node or negative id. *)

val knows : t -> node:int -> msg:int -> bool
(** [false] (not an error) for out-of-range arguments. *)

val any_known : t -> bool
(** Has any probe landed yet?  [false] means the adversary is blind. *)

val crosses : t -> int -> int -> bool
(** [crosses t u v] iff some message is known at exactly one of [u],
    [v] — the edge spans the message frontier.  [false] for
    out-of-range nodes. *)

val informed : t -> node:int -> int
(** Number of distinct messages known at [node]. *)
