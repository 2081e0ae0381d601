(** Discrete-event simulation core.

    A simulation owns a virtual clock and an event queue of timestamped
    callbacks.  Running the simulation repeatedly pops the earliest event,
    advances the clock to its timestamp, and executes its callback; callbacks
    may schedule further events.  Time never flows backwards. *)

type t
(** A simulation instance. *)

type handle
(** Identifies a scheduled event, for cancellation. *)

exception Causality of { now : float; requested : float }
(** Raised by {!schedule_at} when asked to schedule strictly in the past. *)

val create : unit -> t
(** A fresh simulation with the clock at time [0.]. *)

val now : t -> float
(** Current virtual time. *)

val schedule_at : ?cat:string -> t -> time:float -> (unit -> unit) -> handle
(** [schedule_at sim ~time f] runs [f] when the clock reaches [time].
    Raises {!Causality} if [time < now sim].  Events with equal times run in
    scheduling order.  [cat] labels the event with a handler category for
    the profiler (see {!category_stats}); uncategorized events are counted
    only in {!executed_events}. *)

val schedule : ?cat:string -> t -> delay:float -> (unit -> unit) -> handle
(** [schedule sim ~delay f] is [schedule_at sim ~time:(now sim +. delay) f].
    Raises [Invalid_argument] if [delay < 0.]. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; a no-op if it already ran or was cancelled. *)

val pending : t -> int
(** Number of events still queued. *)

val next_time : t -> float option
(** Timestamp of the earliest queued event, or [None] when the queue is
    empty.  The horizon-parallel engine (lib/pdes) reads this across
    partitions to pick the next barrier window's start. *)

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
(** Per-category [(name, events, wall_seconds)] for events scheduled with
    [?cat], sorted by category name. *)

val cat_interned : t -> int
(** Number of distinct category names interned so far.  Categories are
    interned to dense ids at {!schedule} time so per-event accounting is an
    array index; this count feeds the [engine.cat_interned] metric. *)

val heap_high_water : t -> int
(** Maximum number of simultaneously pending events ever observed. *)

val heap_pushes : t -> int
(** Total events ever scheduled. *)

val cancelled_events : t -> int
(** Events cancelled while still pending. *)
