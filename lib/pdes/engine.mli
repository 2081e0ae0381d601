(** Horizon-parallel discrete-event engine for BMMB mega runs.

    The dual graph is split into [P] partitions ({!Graphs.Partition}),
    each owning one {!Mega} instance with a private event heap, RNG
    stream, and (for time-varying graphs) dynamic-dual wrapper.  Their
    per-node state sits in arrays indexed by node that all partitions
    share ({!Mega.shared}), beside the one node-to-partition owner
    index, so setup allocates O(n) words for any [P].  [P] is
    a {e model} parameter: it fixes the execution — instance ids, RNG
    draws, delivery times — once and for all.  [N = domains] only maps
    partitions onto worker domains ([p mod N]), which is why the trace
    and every counter are identical for any [1 <= N <= P].

    Execution proceeds in barrier windows.  The coordinator reads the
    earliest pending timestamp across partitions ([tau]), sets the
    horizon [tau + Fprog], and lets each domain run its partitions up to
    the horizon ({!Dsim.Sim.run}[ ~until]).  [Fprog] is the conservative
    lookahead: {!Mega} floors every cross-partition delivery at
    [bcast + Fprog], so no event executed inside a window can affect
    another partition within that same window.  At the barrier the
    coordinator drains the {!Mailbox} — entries sorted by
    [(time, source partition, append order)] — into the destination
    heaps, whose FIFO-stable ordering then replays them identically on
    every run.

    A window pays only for its due partitions.  Each partition's next
    event time ({!Dsim.Sim.next_time}) is kept in a float array, so
    [tau] is a scan of [P] floats, and a window runs only the partitions
    with an event at or before its horizon: running an idle one would
    execute nothing.  The mailboxes are drained only after windows in
    which some partition sent something (flush-on-send), and only the
    destinations that received entries are rescheduled.  Windows,
    events, RNG draws and trace bytes are those of running every
    partition in every window.

    With [~trace], each partition buffers what it records, and after
    each window the coordinator records into [trace] every buffered entry
    earlier than the window's horizon, which no later window can precede,
    ordered by [(time, terminating-event rank, partition, record order)];
    the rest waits for the next window, and what is left after the last
    window is recorded then.
    Ranking [ack]/[abort] after same-time deliveries makes the merged
    trace pass the {!Amac.Compliance} audit, whose receive/ack-correctness
    rules compare trace indices at equal timestamps.  The trace's
    subscribers therefore run on the calling domain, between windows,
    never on a worker. *)

exception Domains_exceed_partitions of { domains : int; partitions : int }
(** Raised by {!run} when asked for more worker domains than there are
    partitions to map onto them. *)

type result = {
  complete : bool;
      (** every message reached every node of its origin's G-component *)
  time : float;  (** completion time ([infinity] when incomplete) *)
  bcasts : int;
  rcvs : int;
  acks : int;
  deliveries : int;  (** distinct (node, message) deliveries *)
  remote_deliveries : int;  (** deliveries routed through mailboxes *)
  events : int;  (** callbacks executed, summed over partitions *)
  windows : int;  (** barrier windows executed *)
  heap_high_water : int;  (** max pending events in any partition heap *)
  partitions : int;
  domains : int;
  cut_edges : int;  (** G'-edges crossing the partition boundary *)
  part_sizes : int array;
}

val run :
  dual:Graphs.Dual.t ->
  ?mk_dyn:(unit -> Dyn.Dual.t) ->
  fprog:float ->
  assignment:(int * int) list ->
  seed:int ->
  partitions:int ->
  domains:int ->
  ?trace:Dsim.Trace.t ->
  unit ->
  result
(** Runs BMMB to completion.  [mk_dyn], when given, is called once per
    partition to build that partition's private dynamic wrapper (it must
    be deterministic — e.g. close over a schedule spec, not a shared
    mutable schedule).  Partitioning uses the base dual's G'.  Requires
    [partitions >= 1], [1 <= domains], [Fprog > 0] and distinct message
    ids [>= 0] (the serial engine's rules too; [Invalid_argument] names
    a negative id, or a repeated one with the serial tracker's message,
    before anything is allocated); raises {!Domains_exceed_partitions}
    when [domains > partitions].  Ids need not be dense.  The run is
    complete, as the serial engine's tracker judges it, when every
    message has reached every node of its origin's G-component (one
    components pass over G finds them); the completion time is the
    latest of those deliveries.  The caller is responsible for
    [Fprog <= Fack] (the engine acks at exactly [bcast + Fprog]). *)
