(** Fused per-partition BMMB engine with struct-of-arrays state.

    One value of this type owns the nodes of a single partition and runs
    BMMB over the standard MAC semantics in fused form: protocol queues,
    delivered sets, and MAC instance state live in flat int arrays and a
    bitset indexed by local node id, not in per-node records or pooled
    hash tables.  That is what lets a million-node run fit: per-node
    state is [k] ints of FIFO ring, [k] bits (rounded up to whole bytes)
    of delivered set, and three words of in-flight instance (message,
    instance id, G' row), in arrays indexed by node that every
    partition shares ({!shared}) and that are allocated once, before
    the run.  The node-to-partition map is the one owner index.

    Semantics (a deterministic instantiation of the abstract MAC layer
    axioms, Section 3.2.1):

    - a broadcast at time [t] delivers to {e every} G'-neighbor — owned
      neighbors at [t + u] for one uniform draw [u ~ [0, Fprog)], remote
      neighbors at exactly [t + Fprog] via the {!Mailbox};
    - the ack fires at exactly [t + Fprog] ([Fprog <= Fack], so the ack
      bound holds, and full coverage keeps every progress window
      satisfied by construction — the serial engine's forced-delivery
      watchdog is provably idle here and is omitted).

    The owned deliveries of a broadcast are one event, and its ack
    another; both are int-coded ({!Dsim.Sim.post}) with the sender's
    node id, under two handlers each partition registers once, so
    broadcasting allocates no closure.

    The [t + Fprog] floor on remote deliveries is the engine's
    conservative lookahead: events created inside a barrier window of
    length [Fprog] and destined for another partition always land at or
    beyond the window's end, so flushing mailboxes at the barrier never
    schedules into a partition's past.

    Instance ids are packed [local_count * partitions + me], so streams
    from different partitions never collide and the merged trace's cause
    function stays injective. *)

type shared
(** The per-node state of every partition.  A partition reads and
    writes only the entries of the nodes it owns, and each node's
    entries (its delivered-set bytes included) are its own, so domains
    running different partitions never write the same location. *)

val shared :
  part:int array ->
  k:int ->
  component:int array ->
  origin_component:int array ->
  shared
(** [part] maps every node to its partition.  [k] bounds message ids
    ([0..k-1]; [Invalid_argument] unless [k >= 1]).  [component] maps
    every node to its G-component and [origin_component] every message
    id to its origin's component ([-1] for an id no node injects): a
    delivery is {e required} when the two agree, as the serial engine's
    tracker requires it. *)

type t

val create :
  sim:Dsim.Sim.t ->
  dual:Graphs.Dual.t ->
  ?dyn:Dyn.Dual.t ->
  fprog:float ->
  shared:shared ->
  me:int ->
  parts:int ->
  seed:int ->
  trace:Dsim.Trace.t ->
  tracing:bool ->
  send:(dst:int -> Mailbox.entry -> unit) ->
  unit ->
  t
(** This engine owns the nodes that [shared] assigns to partition [me].
    [dyn], when given, must be a partition-private wrapper (epochs
    advance monotonically per partition); its oracle hooks are never
    consulted — the adversary needs global delivered-set knowledge and
    is rejected upstream.  [trace] is this partition's private record
    stream: {!Engine} subscribes a buffer to it and merges what it
    records, window by window, into the caller's trace.  Nothing is
    recorded unless [tracing]. *)

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
(** Distinct (node, message) deliveries so far, arrivals included. *)

val required_delivered : t -> int
(** The required ones among them (see {!shared}). *)

val last_required_delivery : t -> float
(** Time of the latest required delivery ([0.] before any). *)
