(** Message-lifecycle spans, derived online from trace events.

    A span follows one MMB message: environment arrival, first MAC
    broadcast carrying it, per-node deliveries, and completion, which
    the run's delivery ledger ({!Mmb.Problem}) judges: the message has
    reached every node of its origin's G-component.  The ledger takes
    each delivery before the trace records it, so the span completes at
    the first [Deliver] entry that finds the ledger complete.  Feeding
    entries through {!on_entry} — typically via {!Dsim.Trace.subscribe} —
    populates per-message latency histograms and event counters in the
    registry without retaining the trace itself.

    Registered metrics: counters [events.{arrive,deliver,bcast,rcv,ack,
    abort,orphan}] and [span.msgs_complete]; probes [span.msgs_seen] and
    [span.frontier] (total deliveries so far); histograms
    [span.completion_latency], [span.first_bcast_delay],
    [span.deliver_latency] (all relative to arrival) and
    [mac.ack_latency] (bcast→ack per instance — the empirical Fack
    distribution; its exact max is {!Amac.Estimate}'s [est_fack]).

    Robust to imperfect streams: deliveries before the arrival is seen
    skip latency observations, acks/aborts of unknown instances count as
    [events.orphan], aborted instances never contribute ack latency.  A
    [Bcast] with a negative message id opens no span (FMMB records its
    control bodies as [-1]); it times only a span an [Arrive] or
    [Deliver] opened.

    Storage: message ids and instance uids, whatever ints the trace uses,
    are numbered on first sight by a {!Dsim.Int_table}, and the state
    sits in float and int columns indexed by those numbers.  An acked or
    aborted instance is flagged closed, not removed, so memory grows
    with the instances broadcast.  Past the amortized growth of its
    arrays, an entry allocates only the float each latency observation
    boxes. *)

type t

val create : metrics:Metrics.t -> unit -> t

val on_entry : t -> Mmb.Problem.tracker -> Dsim.Trace.entry -> unit
(** One entry, judged by the run's ledger, which must have taken every
    delivery up to and including this entry's. *)

val messages_seen : t -> int
val messages_complete : t -> int

val total_delivers : t -> int
(** Sum of per-message delivery counts — the global coverage frontier. *)

val last_time : t -> float
(** Largest event timestamp seen. *)

val span_lines : t -> Dsim.Json.t list
(** One [{"kind":"span","msg":id,...}] object per message, sorted by
    message id, with [arrive]/[first_bcast]/[delivers]/[last_deliver]/
    [complete]/[latency] fields ([null] where unknown). *)
