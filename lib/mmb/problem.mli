(** The Multi-Message Broadcast problem (Section 2).

    The environment injects [k >= 1] messages at time 0 ([k] unknown to the
    protocol); the problem is solved when every message [m] injected at node
    [u] has been delivered at every node of [u]'s connected component in
    [G].  This module provides arrival-assignment generators and the
    delivery ledger, the one record of who has which message outside
    protocol state (the protocol never detects completion itself). *)

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

(** {1 The delivery ledger}

    Per message, its origin, arrival, remaining count and completion time
    sit in columns; who has it is one {!Dsim.Bitset} over
    [number * n + node].  A message is required at its origin's
    G-component.  The runner's completion, latencies and duplicate
    counts, FMMB's first-delivery dedup and the observers' completion
    ([Obs.Spans], [Obs.Provenance], [Obs.Tracing.Sim], handed the run's
    ledger by [Mmb.Instrument]) all read it.  A delivery reaches the
    ledger before the trace records it, so the first [Deliver] entry
    that finds its message {!completed} is the completing one. *)

type tracker

val tracker : dual:Graphs.Dual.t -> assignment -> tracker
(** Every message of the assignment arrived at time 0; with [[]], an
    empty ledger whose arrivals are learnt as they come ({!arrive}). *)

val tracker_timed : dual:Graphs.Dual.t -> timed_assignment -> tracker
(** Each message arrived at its own time, from which {!latencies} are
    measured.  Raises [Invalid_argument] on an origin out of range, a
    negative time or a repeated message id. *)

val arrive : tracker -> node:int -> msg:int -> time:float -> bool
(** [false], changing nothing, if the message had arrived already. *)

val expect : tracker -> msg:int -> unit
(** Keeps the message's deliveries before its arrival; they count once
    it arrives.  For an auditor of deliveries without an arrival. *)

val deliver : tracker -> node:int -> msg:int -> time:float -> bool
(** Test-and-set: [true] iff it is [node]'s first delivery of a message
    the ledger knows.  A repeat changes nothing; a message it does not
    know counts as spurious.  Allocates nothing. *)

val has : tracker -> node:int -> msg:int -> bool
(** Whether {!deliver} has recorded [node]'s delivery of [msg]. *)

val on_deliver : tracker -> node:int -> msg:int -> time:float -> unit
(** {!deliver}, counting a repeat as a duplicate (MMB condition (b)). *)

val on_entry : tracker -> Dsim.Trace.entry -> unit
(** {!arrive} on [Arrive] (a second one is ignored), {!on_deliver} on
    [Deliver]. *)

val complete : tracker -> bool

val completion_time : tracker -> float option
(** Time of the delivery that completed the problem, once {!complete}. *)

val completed : tracker -> msg:int -> bool
(** The message has arrived and reached its whole component. *)

val message_completion_time : tracker -> msg:int -> float option

val latencies : tracker -> (int * float) list
(** [(msg, completion - arrival)] for every completed message, in the
    order the tracker's arrivals were listed.  Under batch arrivals a
    latency is the message's completion time. *)

val mean_latency : (int * float) list -> float option
(** The mean of {!latencies}, summed in their order; [None] when no
    message completed. *)

val origin : tracker -> msg:int -> int
(** [-1] before the message's arrival. *)

val iter_missing : tracker -> (node:int -> msg:int -> unit) -> unit
(** Each node of an arrived message's component that lacks it, by
    ascending message id, then node. *)

val delivered_count : tracker -> int
(** Total distinct (node, msg) deliveries so far. *)

val duplicate_deliveries : tracker -> int

val spurious_deliveries : tracker -> int
(** Deliveries of unknown messages or outside the message's component
    (harmless to completion, reported for auditing). *)
