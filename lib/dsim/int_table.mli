(** Open-addressing tables of ints: a set, or a map that numbers its
    keys.

    Linear probing over a power-of-two array of cells, doubled before it
    gets half full, with Fibonacci hashing.  Hashing is a fixed function
    of the key, so a table's layout, and the cost of every probe, is the
    same on every run.  Any int is a valid key, negative ones and
    [min_int] included.  There is no deletion, and a set is never
    traversed.

    A map binds each key to its number: 0 for the first key numbered, 1
    for the next, and so on.  Its cells hold numbers and its keys sit in
    one array in number order, so callers keep whatever else they know
    about a key in their own arrays indexed by its number.

    A lookup allocates nothing, and neither does an insert unless the
    table grows, so the table grows with the distinct keys, not with the
    number of inserts. *)

type set
type map

type 'kind t
(** A [set t] or a [map t]. *)

val create_set : unit -> set t
val create_map : unit -> map t

val length : _ t -> int
(** Number of distinct keys: in a map, also the next number. *)

val mem : set t -> int -> bool

val add : set t -> int -> unit
(** [add s key] adds [key]; a no-op if it is already there. *)

val find : map t -> int -> int
(** The number of the key, or [-1] if it has none. *)

val number : map t -> int -> int
(** The number of the key, numbering it first if it has none. *)

val key : map t -> int -> int
(** [key m i] is the key numbered [i], for [0 <= i < length m]. *)
