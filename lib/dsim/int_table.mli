(** Open-addressing maps that number their int keys.

    Linear probing over a power-of-two array of cells, doubled before it
    gets half full, with Fibonacci hashing.  Hashing is a fixed function
    of the key, so a table's layout, and the cost of every probe, is the
    same on every run.  Any int is a valid key, negative ones and
    [min_int] included.  There is no deletion.  A set of small
    non-negative ints is a {!Bitset}, not a table.

    A table binds each key to its number: 0 for the first key numbered,
    1 for the next, and so on.  Its cells hold numbers and its keys sit
    in one array in number order, so callers keep whatever else they
    know about a key in their own arrays indexed by its number.

    A lookup allocates nothing, and neither does an insert unless the
    table grows, so the table grows with the distinct keys, not with the
    number of inserts. *)

type t

val create : unit -> t

val length : t -> int
(** Number of distinct keys, which is also the next number. *)

val find : t -> int -> int
(** The number of the key, or [-1] if it has none. *)

val number : t -> int -> int
(** The number of the key, numbering it first if it has none. *)

val key : t -> int -> int
(** [key m i] is the key numbered [i], for [0 <= i < length m]. *)
