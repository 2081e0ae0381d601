(** Cross-partition delivery buffers.

    During a barrier window each partition appends its outbound remote
    deliveries to a per-(source, destination) buffer and counts them in
    its own slot of a per-source push counter; between windows the
    coordinator drains every destination's buffers and schedules the
    entries into that partition's simulation.  Workers only ever write
    rows and counter slots belonging to their own partitions, and the
    coordinator only reads between windows (the barrier mutex publishes
    the writes), so the buffers need no locking of their own.

    The counters make flushing pay only for windows that sent something:
    {!pending} tells the coordinator whether any entry awaits a
    {!drain}, without visiting the [P * P] buffers.

    {!drain} returns a deterministic merge: entries sorted by timestamp,
    ties broken by source partition, then by append order within the
    (source, destination) pair.  Scheduling them in that order into a
    FIFO-stable event heap makes the parallel execution independent of
    how partitions are mapped onto domains. *)

type entry = {
  time : float;  (** delivery timestamp (>= the window's end) *)
  node : int;  (** receiving node (owned by the destination partition) *)
  msg : int;  (** message id *)
  inst : int;  (** broadcast-instance id, for the trace's cause function *)
}

type t

val create : parts:int -> t

val push : t -> src:int -> dst:int -> entry -> unit

val drain : t -> dst:int -> entry list
(** Remove and return everything destined for [dst], sorted by
    [(time, source partition, append order)]. *)

val pending : t -> bool
(** Some pushed entry has not been drained yet.  Coordinator-only,
    between windows: a scan of the [P] push counters. *)

val pushed : t -> int
(** Total entries pushed so far (the cross-partition delivery count once
    every window has been flushed).  Sums the per-source counters, each
    written only by its source's domain, so call it between windows. *)
