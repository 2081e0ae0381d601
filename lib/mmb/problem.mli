(** The Multi-Message Broadcast problem (Section 2).

    The environment injects [k >= 1] messages at time 0 ([k] unknown to the
    protocol); the problem is solved when every message [m] injected at node
    [u] has been delivered at every node of [u]'s connected component in
    [G].  This module provides arrival-assignment generators and the
    external completion tracker (the protocol never detects completion
    itself). *)

type assignment = (int * int) list
(** [(node, msg)] pairs; message ids must be distinct (each message is
    injected exactly once, MMB-well-formedness). *)

val singleton : Dsim.Rng.t -> n:int -> k:int -> assignment
(** [k <= n] messages [0..k-1] at [k] distinct uniformly-chosen nodes (the
    paper's "singleton assignment"). *)

val random : Dsim.Rng.t -> n:int -> k:int -> assignment
(** [k] messages at uniformly (and possibly repeatedly) chosen nodes. *)

val all_at : node:int -> k:int -> assignment
(** All [k] messages at one node. *)

val spread_line : k:int -> assignment
(** Message [i] at node [i] (for line topologies; requires [k <= n] checked
    at tracking time). *)

(** {1 Online arrivals}

    The paper's MMB problem injects everything at time 0 and defers the
    online variant to [30] (footnote 4); we implement the general version:
    each message arrives at its own time, and per-message latency is
    measured from its arrival. *)

type timed_assignment = (float * int * int) list
(** [(time, node, msg)] triples; message ids must be distinct, times
    non-negative. *)

val at_time_zero : assignment -> timed_assignment

val poisson_arrivals :
  Dsim.Rng.t -> n:int -> k:int -> rate:float -> timed_assignment
(** [k] messages at uniform nodes with exponential(rate) inter-arrival
    times (expected [1/rate] between consecutive arrivals). *)

val staggered_arrivals : node:int -> k:int -> gap:float -> timed_assignment
(** [k] messages at one node, [gap] apart — the adversarial shape for
    queue-discipline starvation. *)

(** {1 Completion tracking} *)

type tracker

val tracker : dual:Graphs.Dual.t -> assignment -> tracker
(** Computes, per message, the set of nodes that must eventually deliver it
    (the G-component of its origin). *)

val tracker_timed : dual:Graphs.Dual.t -> timed_assignment -> tracker
(** Like {!tracker}, remembering each message's arrival time so
    {!message_latency} can be computed. *)

val k : tracker -> int

val on_deliver : tracker -> node:int -> msg:int -> time:float -> unit
(** Record one protocol-level [deliver(m)] event.  Duplicate deliveries at
    the same node are recorded as spec violations (MMB condition (b)). *)

val complete : tracker -> bool

val completion_time : tracker -> float option
(** Time of the delivery that completed the problem, once {!complete}. *)

val message_completion_time : tracker -> msg:int -> float option
(** When the given message finished reaching its component. *)

val message_latency : tracker -> msg:int -> float option
(** Completion time minus arrival time, once the message completed. *)

val latencies : tracker -> (int * float) list
(** [(msg, completion - arrival)] for every completed message, in the
    order the tracker's arrivals were listed.  Under batch arrivals a
    latency is the message's completion time. *)

val mean_latency : (int * float) list -> float option
(** The mean of {!latencies}, summed in their order; [None] when no
    message completed. *)

val delivered_count : tracker -> int
(** Total distinct (node, msg) deliveries so far. *)

val duplicate_deliveries : tracker -> int
(** Number of duplicate [deliver] violations observed. *)

val spurious_deliveries : tracker -> int
(** Deliveries of unknown messages or at nodes outside the message's
    required set (harmless to completion, reported for auditing). *)
