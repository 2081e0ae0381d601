(** Binary min-heap of timestamped entries with stable ordering and O(1)
    cancellation, used as the event queue of the simulator.

    Entries are ordered by [(time, seq)] where [seq] is an insertion counter,
    so two entries scheduled for the same instant pop in insertion order.
    Since [seq] makes every key unique, pop order is a strict total order
    over pushes — independent of the heap's internal layout.

    Entries live in flat arrays indexed by a recycled slot, and a handle
    is an immediate integer packing the entry's [(seq, slot)], so {!push}
    allocates nothing once the arrays have grown and {!cancel} is one
    array read (no lookup table); cancelled entries are discarded lazily
    when they reach the root.

    A slot is reused as soon as its entry is popped or cancelled.  A
    handle still names only its own entry: cancelling it after its slot
    has been reused is a no-op, like any cancel of a popped entry.

    The packing bounds a heap's lifetime: at most [2^28] entries live at
    once and at most [2^34] pushes in all.  {!push} raises
    [Invalid_argument] past either limit; a handle never wraps. *)

type 'a t
(** A mutable min-heap holding values of type ['a]. *)

type 'a handle [@@immediate]
(** Identifies one inserted entry, for cancellation. *)

val none : 'a handle
(** A handle of no entry: cancelling it is a no-op.  Fills handle arrays
    before their slots are used. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty heap. *)

val length : 'a t -> int
(** Number of live (non-cancelled) entries. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val high_water : 'a t -> int
(** Maximum number of live entries ever held — the heap-depth high-water
    mark, for engine profiling. *)

val pushes : 'a t -> int
(** Total entries ever pushed (live, popped, or cancelled). *)

val cancelled : 'a t -> int
(** Entries cancelled while still pending (double-cancels and cancels of
    already-popped entries are not counted). *)

val push : 'a t -> time:float -> 'a -> 'a handle
(** [push h ~time v] inserts [v] with priority [time] and returns a handle
    that can later be passed to {!cancel}.  Allocates nothing, except
    when the heap's arrays grow.  Raises [Invalid_argument] on a NaN
    [time] or past the handle's packing limits (see above). *)

val cancel : 'a t -> 'a handle -> unit
(** [cancel h hd] removes the entry identified by [hd] if it is still
    present; cancelling an already-popped or already-cancelled entry is a
    no-op. *)

val pop : 'a t -> (float * 'a) option
(** [pop h] removes and returns the entry with the smallest [(time, seq)]
    key, or [None] if the heap is empty. *)

val peek_time : 'a t -> float option
(** [peek_time h] is the priority of the next entry {!pop} would return. *)

type 'a next =
  | Empty  (** no live entries *)
  | Later of float  (** next entry is strictly past the horizon *)
  | Due of float * 'a  (** popped: at or before the horizon *)

val pop_if_before : ?horizon:float -> 'a t -> 'a next
(** [pop_if_before ?horizon h] combines {!peek_time} and {!pop} in one
    traversal: pops the minimum entry unless its time is strictly greater
    than [horizon], in which case it stays queued and its time is returned
    as [Later].  Without [horizon] the result is never [Later]. *)
