(** Fused per-partition BMMB engine with struct-of-arrays state.

    One value of this type owns the nodes of a single partition and runs
    BMMB over the standard MAC semantics in fused form: protocol queues,
    delivered sets, and MAC instance state live in flat int arrays and a
    bitset indexed by local node id, not in per-node records or pooled
    hash tables.  That is what lets a million-node run fit: per-node
    state is [k] ints of FIFO ring, [k] bits of delivered set, and two
    ints of in-flight instance, allocated once at creation.

    Semantics (a deterministic instantiation of the abstract MAC layer
    axioms, Section 3.2.1):

    - a broadcast at time [t] delivers to {e every} G'-neighbor — owned
      neighbors at [t + u] for one uniform draw [u ~ [0, Fprog)], remote
      neighbors at exactly [t + Fprog] via the {!Mailbox};
    - the ack fires at exactly [t + Fprog] ([Fprog <= Fack], so the ack
      bound holds, and full coverage keeps every progress window
      satisfied by construction — the serial engine's forced-delivery
      watchdog is provably idle here and is omitted).

    The [t + Fprog] floor on remote deliveries is the engine's
    conservative lookahead: events created inside a barrier window of
    length [Fprog] and destined for another partition always land at or
    beyond the window's end, so flushing mailboxes at the barrier never
    schedules into a partition's past.

    Instance ids are packed [local_count * partitions + me], so streams
    from different partitions never collide and the merged trace's cause
    function stays injective. *)

type t

val create :
  sim:Dsim.Sim.t ->
  dual:Graphs.Dual.t ->
  ?dyn:Dyn.Dual.t ->
  fprog:float ->
  part:int array ->
  me:int ->
  parts:int ->
  k:int ->
  seed:int ->
  trace:Dsim.Trace.t ->
  tracing:bool ->
  send:(dst:int -> Mailbox.entry -> unit) ->
  unit ->
  t
(** [part] maps every global node to its partition; this engine owns the
    nodes with [part.(node) = me].  [k] bounds message ids ([0..k-1]).
    [dyn], when given, must be a partition-private wrapper (epochs
    advance monotonically per partition); its oracle hooks are never
    consulted — the adversary needs global delivered-set knowledge and
    is rejected upstream.  [trace] should be retention-free for mega
    runs (a disabled trace plus a {!Dsim.Trace_io.sink}). *)

val schedule_arrival : t -> node:int -> msg:int -> unit
(** Queue the environment's injection of [msg] at [node] at time [0.]
    (PDES mode is batch-arrival only).  [node] must be owned. *)

val receive_remote : t -> Mailbox.entry -> unit
(** Schedule a cross-partition delivery drained from the mailbox.
    Coordinator-only, between windows; the entry's timestamp is at or
    beyond this partition's clock by the lookahead argument above. *)

(** {1 Counters} *)

val bcasts : t -> int
val rcvs : t -> int
val acks : t -> int

val delivered : t -> int
(** Distinct (node, message) deliveries so far, arrivals included —
    [n_local] times the number of messages when this partition is
    done. *)

val n_local : t -> int

val last_delivery : t -> float
(** Time of the latest delivery ([0.] before any). *)
