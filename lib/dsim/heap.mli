(** The simulator's event queue: a binary min-heap of slots keyed by
    [(time, seq)], with FIFO lanes for delays that repeat, and O(1)
    cancellation.

    The queue orders {e slots}, not values: {!push} takes only a time
    and returns a handle naming a slot ({!slot}), and the caller keeps
    the entry's payload in its own slot-indexed arrays.  Slots are
    recycled, so those arrays stay as long as the most entries ever live
    at once.

    Entries are ordered by [(time, seq)] where [seq] is an insertion
    counter, so two entries scheduled for the same instant pop in
    insertion order.  Since [seq] makes every key unique, pop order is a
    strict total order over pushes — independent of the internal layout,
    which a pop (a bottom-up sift-down), compaction (below) and the
    lanes are free to change.

    {b Lanes.}  A simulator's delays are a handful of constants (an ack
    bound, a progress bound, a round length), so most entries are pushed
    by {!push_after} with a delay pushed just before.  A delay opens a
    lane when it repeats the last delay pushed outside a lane; a queue
    opens at most 4.  From then on, a {!push_after} with that delay goes
    to the tail of its lane, unless its time is earlier than the lane's
    last entry: then it goes to the heap.  So a lane is sorted by
    [(time, seq)], and only its first entry sits in the heap; popping
    that entry puts the lane's next live entry at the root, which costs
    no sift when that entry is still the minimum.  The root is thus
    always the minimum of every queued entry, and pop order is the same
    strict [(time, seq)] order as without lanes.  {!push} never uses a
    lane.

    A handle is an immediate integer packing the entry's [(seq, slot)],
    so {!push} allocates nothing once the queue's arrays have grown, and
    {!cancel} is one array read (no lookup table).  A slot is reused as
    soon as its entry is popped or cancelled; a handle still names only
    its own entry, so cancelling it after its slot has been reused is a
    no-op, like any cancel of a popped entry.

    A cancelled entry's key stays queued until it surfaces at the root
    (or, in a lane, at the lane's head), except that once a cancel
    leaves more dead keys than live ones, counting the lanes', the queue
    drops every dead key and re-heapifies (compaction), so right after a
    cancel it holds at most about twice its live entries.  The cancels
    that made those keys dead pay for the compaction.

    The packing bounds a queue's lifetime: at most [2^28] entries live at
    once and at most [2^34] pushes in all.  {!push} raises
    [Invalid_argument] past either limit; a handle never wraps. *)

type t
(** A mutable event queue of slots. *)

type handle [@@immediate]
(** Identifies one inserted entry, for cancellation. *)

val none : handle
(** A handle of no entry: cancelling it is a no-op.  Fills handle arrays
    before their slots are used. *)

val slot : handle -> int
(** The slot of the entry the handle names: a small non-negative int,
    below the largest number of entries ever live at once. *)

val create : unit -> t
(** [create ()] is a fresh empty queue, with no lane open. *)

val length : t -> int
(** Number of live (non-cancelled) entries. *)

val is_empty : t -> bool
(** [is_empty h] is [length h = 0]. *)

val high_water : t -> int
(** Maximum number of live entries ever held, lanes included — the
    queue-depth high-water mark, for engine profiling. *)

val pushes : t -> int
(** Total entries ever pushed (live, popped, or cancelled). *)

val cancelled : t -> int
(** Entries cancelled while still pending (double-cancels and cancels of
    already-popped entries are not counted). *)

val compactions : t -> int
(** Times the queue has dropped its dead keys because they outnumbered
    the live ones. *)

val push : t -> time:float -> handle
(** [push h ~time] inserts an entry with priority [time] in a free slot
    and returns its handle.  Allocates nothing, except when the heap's
    arrays grow.  Raises [Invalid_argument] on a NaN [time] or past the
    handle's packing limits (see above). *)

val push_after : t -> now:float array -> delays:float array -> at:int -> handle
(** [push_after h ~now ~delays ~at] pushes an entry at [now.(0) +.
    delays.(at)].  Both floats are read from the caller's unboxed cells
    and summed inside the queue, so none is boxed: a simulator keeps
    its clock in [now] and its delays in float arrays, and schedules
    relative to the clock allocation-free.  It pops exactly as [push h
    ~time:(now.(0) +. delays.(at))] would, whatever the cells hold.
    The entry takes the lane of its delay (see above) when its time is
    not before the lane's last entry, which holds for every push of one
    delay as long as [now.(0)] never decreases, as a simulator's clock
    does not.  Allocates nothing, except when the queue's arrays grow
    or a lane opens. *)

val cancel : t -> handle -> unit
(** [cancel h hd] removes the entry identified by [hd] if it is still
    present and frees its slot; cancelling an already-popped or
    already-cancelled entry is a no-op. *)

val min_time : t -> float
(** Priority of the live entry with the smallest [(time, seq)] key, or
    [infinity] when the heap is empty. *)

val pop_until : t -> until:float -> time:float array -> int
(** [pop_until h ~until ~time] removes the live entry with the smallest
    [(time, seq)] key if its time is at most [until], writes that time
    to [time.(0)] and returns its slot, which is free again from then
    on.  Otherwise (an empty heap, or a minimum past [until]) it returns
    [-1] and leaves the heap and [time] alone.  The time travels through
    the caller's float array, not a return value, so the pop allocates
    nothing; [~until:infinity] pops any minimum. *)
