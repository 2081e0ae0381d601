(** Growable sets of non-negative ints, one bit per id.

    A set is a byte string whose bit [i land 7] of byte [i lsr 3] says
    whether [i] is a member.  It grows, doubling, to fit the largest id
    added, and never shrinks, so its memory follows the largest id it
    has held, not its size: meant for small dense ids such as message
    numbers and node ids.

    {!mem}, {!add}, {!remove} and {!test_and_add} allocate nothing on a
    set already wide enough for the id.  Every query and traversal is
    in ascending id order, so nothing here depends on hashing. *)

type t

val create : width:int -> t
(** An empty set with room for ids [0 .. width - 1] before it grows
    ([width >= 0]). *)

val mem : t -> int -> bool
(** [false] for an id the set has no room for, a negative one
    included. *)

val add : t -> int -> unit
(** Raises [Invalid_argument "Bitset.add: ids must be >= 0"] on a
    negative id. *)

val test_and_add : t -> int -> bool
(** [test_and_add s i] adds [i] and says whether it was already a
    member.  Raises [Invalid_argument "Bitset.test_and_add: ids must be
    >= 0"] on a negative id. *)

val remove : t -> int -> unit
(** A no-op for an id that is not a member. *)

val cardinal : t -> int

val min_elt : t -> int option
(** The smallest member, by an ascending scan. *)

val min_diff : t -> t -> int option
(** [min_diff a b] is the smallest member of [a] that is not in [b]. *)

val equal : t -> t -> bool
(** Same members, whatever the two sets' widths. *)

val iter : (int -> unit) -> t -> unit
(** Members in ascending order.  [f] must not change the set. *)
