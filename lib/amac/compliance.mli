(** Checker of the abstract MAC layer axioms (Section 3.2.1), the one
    implementation of them in the repository.

    It checks, on a time-ordered stream of trace entries:

    + {b receive correctness} — every [rcv] goes to a G'-neighbor of the
      instance's sender, at most one [rcv] per (instance, receiver), and no
      [rcv] after the instance's [ack] (after an [abort], up to [eps_abort]
      of slack is allowed, as in the model);
    + {b ack correctness} — an instance's [ack] is preceded by a [rcv] at
      every G-neighbor of the sender, and each instance has at most one
      terminating event;
    + {b termination} — every [bcast] has a terminating event (skipped for
      instances still open at the horizon when [allow_open]);
    + {b acknowledgment bound} — [ack] within [fack] of the [bcast];
    + {b progress bound} — for every receiver [j] and every window
      [(x, x+fprog]] wholly spanned by an open instance from a G-neighbor
      of [j], some [rcv] at [j] occurs by the window's end from an instance
      whose terminating event does not precede the window's start.

    Two ways in: {!create} / {!on_entry} / {!finish} check a live run
    event by event, subscribed ({!Dsim.Trace.subscribe}) to a trace that
    need keep no entries, and report each violation the moment it is
    detectable.  Every checked run is audited this way.  {!audit} is that
    same stream folded over a trace that kept its entries, for tests and
    {!Estimate}, so the two cannot disagree.  Local rules fire on the
    offending entry; the progress bound is checked on each connected
    span when its instance terminates (an open contender's coverage
    extends to [+inf], which no later event can contradict).

    {b Precondition and cost.}  [Bcast] entries must come in nondecreasing
    time order, as every engine trace's do; other entries may arrive out
    of order.  The first [Bcast] earlier than one before it is reported
    as a [trace-order] violation, and progress-bound verdicts after it
    may be spurious.  Under the precondition an entry costs amortized
    O(deg) bookkeeping, and each span check makes one pass over the
    receiver's retained receipts.  A receiver retains only the receipts
    open spans can still use: each check drops those whose instance
    terminated before both the checked span and the receiver's oldest
    open span began.  So the cost per entry does not grow with the
    length of the run.

    The state is flat arrays: instance uids, whatever ints the trace
    uses, are numbered in [Bcast] order by a {!Dsim.Int_table}, and
    per-instance columns (sender, state, times, and a receiver set of
    one byte per position in the sender's G'-row), per-receiver columns
    and shared pools hold numbers, never pointers.  Past the amortized
    growth of those arrays an entry allocates nothing, unless it reports
    a violation or ends a starvation gap (which boxes the float
    [on_gap] gets).  An instance's state is kept for the whole run.

    The checker is the independent half of model fidelity: the engines are
    built to satisfy the axioms, and this module verifies that they did on
    each concrete execution.  Not applicable to FMMB traces: the
    round-based stages use a fresh engine each (instance uids and times
    restart per stage). *)

type violation = {
  rule : string;  (** short rule identifier, e.g. "receive-correctness" *)
  detail : string;  (** human-readable description *)
}

val audit :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  ?eps_abort:float ->
  ?allow_open:bool ->
  Dsim.Trace.t ->
  violation list
(** Empty result means the trace is compliant.  [eps_abort] defaults to
    [0.]; [allow_open] (default [false]) suppresses termination violations
    for instances with no terminating event (horizon-truncated runs).
    Violations come in detection order. *)

val pp_violation : Format.formatter -> violation -> unit

(** {1 Streaming} *)

type t

val create :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  ?eps_abort:float ->
  ?dyn:Dyn.Dual.t ->
  ?on_violation:(Dsim.Trace.entry option -> violation -> unit) ->
  ?on_gap:(float -> unit) ->
  unit ->
  t
(** [on_violation] fires once per violation at detection time with the
    entry being processed ([None] for horizon-time findings from
    {!finish}).

    [on_gap] receives every empirical starvation gap: how long a receiver
    with an open reliable-neighbor instance waited with no live covering
    delivery.  The largest gap is the empirical Fprog, the quantity
    {!Estimate} recovers by binary search.

    [dyn] enables the epoch-aware axiom variants for time-varying
    unreliable layers ([dual] must then be the schedule's base/union
    dual).  The checker never steps epochs (check A6); it pins, per
    instance at [Bcast] time, the epoch-current G' through the
    read-only [Dyn.Dual.current] — the MAC advances the epoch just
    before recording the event — and classifies anomalies the schedule
    explains as churned ({!churned_count}) instead of violations:

    {ul
    {- {b receive correctness}: a delivery outside the pinned G' but
       inside the union G' crossed a churned-away link — churned; a
       delivery outside even the union is still a violation.}
    {- {b ack correctness / progress / ack bound}: unchanged — they
       quantify over G, which schedules never touch.}} *)

val on_entry : t -> Dsim.Trace.entry -> unit

val finish : ?allow_open:bool -> t -> violation list
(** Close the run: instances still open are checked against the last
    observed event time (and flagged as termination violations unless
    [allow_open]), and open starvation windows are reported to [on_gap].
    Returns all violations, detection order.  Idempotent. *)

val violations : t -> violation list
(** Violations so far, detection order. *)

val violation_count : t -> int

val churned_count : t -> int
(** Anomalies classified as churn-explained (0 without [?dyn]). *)
