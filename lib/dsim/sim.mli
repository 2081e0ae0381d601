(** Discrete-event simulation core.

    A simulation owns a virtual clock and an event queue of timestamped
    callbacks.  Running the simulation repeatedly pops the earliest event,
    advances the clock to its timestamp, and executes its callback; callbacks
    may schedule further events.  Time never flows backwards.

    An event's callback is either a thunk ({!schedule_at}, {!schedule}) or
    a handler registered once ({!register}) applied to an int argument
    ({!post}).  The engine keeps each queued event's category
    and callback in arrays indexed by its {!Heap} slot and its clock in an
    unboxed cell, so running an event allocates nothing, and neither does
    posting one: a hot caller that registers its handlers up front and
    encodes each event as an int (a node, say) allocates nothing per
    event but what its handlers do. *)

type t
(** A simulation instance. *)

type handle [@@immediate]
(** Identifies a scheduled event, for cancellation.  An immediate value,
    so arrays of handles hold no pointers. *)

val no_event : handle
(** A handle of no event: {!cancel} of it is a no-op.  Fills the slots
    of a handle array that hold no scheduled event. *)

exception Causality of { now : float; requested : float }
(** Raised by {!schedule_at} when asked to schedule strictly in the
    past. *)

val create : unit -> t
(** A fresh simulation with the clock at time [0.]. *)

val now : t -> float
(** Current virtual time.  The clock lives in an unboxed cell, so a call
    the compiler does not inline allocates the float it returns. *)

val schedule_at : ?cat:string -> t -> time:float -> (unit -> unit) -> handle
(** [schedule_at sim ~time f] runs [f] when the clock reaches [time].
    Raises {!Causality} if [time < now sim].  Events with equal times run in
    scheduling order.  [cat] labels the event with a handler category for
    the profiler (see {!category_stats}); uncategorized events are counted
    only in {!executed_events}. *)

val schedule : ?cat:string -> t -> delay:float -> (unit -> unit) -> handle
(** [schedule sim ~delay f] is [schedule_at sim ~time:(now sim +. delay) f],
    without boxing the sum.  Raises [Invalid_argument] if [delay < 0.]. *)

type handler [@@immediate]
(** A callback registered with one simulation, for {!post}. *)

val register : ?cat:string -> t -> (int -> unit) -> handler
(** [register sim fn] makes [fn] postable on [sim]; every event posted
    with the handler calls [fn] with the event's int argument.  [cat]
    labels every event posted with the handler, as [?cat] labels a
    scheduled one (see {!category_stats}); without it they count only
    in {!executed_events}. *)

val post : t -> delays:float array -> at:int -> handler -> int -> handle
(** [post sim ~delays ~at h arg] runs [h]'s function on [arg] when the
    clock reaches [now sim +. delays.(at)], ordered with every other
    event by [(time, scheduling order)] exactly as {!schedule}, and
    charged to [h]'s category.  The delay is read from the caller's
    float array, as the engine reads its clock from its own, so no
    float is boxed on the way in; a caller keeps its constant delays
    in such a cell and writes computed ones into one.  Allocates
    nothing once the queue has grown: the category is [h]'s, interned
    when it was registered.  Raises [Invalid_argument] if
    [delays.(at) < 0.] or if [h]'s id is out of range for [sim], i.e.
    [sim] has registered fewer handlers.  A handler registered with
    another simulation is not detected when its id is in range: it
    runs [sim]'s handler with that id. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; a no-op if it already ran or was cancelled,
    even once the engine has reused its storage for a later event. *)

val pending : t -> int
(** Number of events still queued. *)

val next_time : t -> float
(** Timestamp of the earliest queued event, or [infinity] when the queue
    is empty.  The horizon-parallel engine (lib/pdes) keeps one per
    partition: their minimum starts the next barrier window, and a
    partition whose next event lies past the window's horizon is not
    run in it. *)

type outcome =
  | Drained  (** the event queue emptied *)
  | Hit_time_limit  (** the [until] horizon was reached *)
  | Hit_event_limit  (** the [max_events] budget was exhausted *)
  | Stopped  (** a callback called {!stop} *)

val run : ?until:float -> ?max_events:int -> t -> outcome
(** [run sim] executes queued events in timestamp order until one of the
    stop conditions triggers.  [until] bounds virtual time (events strictly
    later stay queued and the clock is advanced to [until]); [max_events]
    bounds the number of callbacks executed. *)

val stop : t -> unit
(** When called from inside a callback, makes the current {!run} return
    [Stopped] after the callback finishes. *)

(** {1 Engine profiling}

    Counters below are cumulative over the simulation's lifetime (across
    repeated {!run} calls); [max_events] budgets remain per-call. *)

val executed_events : t -> int
(** Total callbacks executed so far — the [executed] count {!run} used to
    discard.  After [run ?max_events] returns [Hit_event_limit], the
    per-call share of this total equals the budget. *)

val set_wall_clock : t -> (unit -> float) -> unit
(** Inject a monotonic wall-clock source, in seconds, used to
    attribute real time to handler categories.  The engine never reads
    ambient clocks itself (lint rule D3): without injection,
    {!category_stats} reports zero wall time but still counts events. *)

val category_stats : t -> (string * int * float) list
(** Per-category [(name, events, wall_seconds)] for events scheduled
    with [?cat] or posted with a handler registered with one, sorted by
    category name.  A category is listed from its first {!register} or
    {!schedule} on, even if none of its events has run. *)

val cat_interned : t -> int
(** Number of distinct category names interned so far.  Categories are
    interned to dense ids when a handler is registered or an event
    scheduled with one, so per-event accounting is an array index; this
    count feeds the [engine.cat_interned] metric. *)

val heap_high_water : t -> int
(** Maximum number of simultaneously pending events ever observed. *)

val heap_pushes : t -> int
(** Total events ever scheduled. *)

val cancelled_events : t -> int
(** Events cancelled while still pending. *)
