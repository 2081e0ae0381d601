(** Epoch-indexed unreliable-edge schedules over a fixed reliable graph.

    A schedule describes how the unreliable layer [G' \ G] of a
    {!Graphs.Dual.t} varies over sim-time, in epochs of length [T] (the
    stability parameter: within each window the graph is fixed —
    Ahmadi–Kuhn's T-interval flavor).  Two invariants hold for every
    kind:

    - [G] never changes.  Only extras churn, so per-delivery
      reliability ([Graphs.Dual.is_reliable]) is epoch-invariant and
      the base dual's [reliable_bits] is reused forever.
    - Every epoch's extras are a subset of the base dual's extras (the
      pool).  The base dual is the union graph, so a static post-hoc
      audit against it stays sound for dynamic runs.

    Randomized kinds derive an independent RNG per epoch from
    [(seed, epoch)], making the edge set at epoch [e] a pure function
    of the schedule parameters and [e] — deterministic across worker
    counts, query orders, and [OCAMLRUNPARAM=R].

    Capability note (check rule A6): {!extras_at} is the mutator
    here (the adversary memoizes its frontier-dependent choice at first
    entry); constructors and readers are sanctioned everywhere. *)

type t

(** {1 Constructors} *)

val static : Graphs.Dual.t -> t
(** One epoch, forever: the degenerate schedule whose runs must be
    byte-identical to the plain static path. *)

val flap : base:Graphs.Dual.t -> epoch_len:float -> period:int -> t
(** All extras present for [period] epochs, absent for the next
    [period], alternating (epoch 0 starts present).  Requires
    [period >= 1] and [epoch_len > 0]. *)

val churn : base:Graphs.Dual.t -> epoch_len:float -> rate:float -> seed:int -> t
(** Each pool edge independently absent with probability [rate] in each
    epoch, freshly drawn per epoch from [(seed, epoch)].  [rate = 0] is
    static-in-effect; [rate = 1] strips every unreliable link.
    Requires [rate] in [[0, 1]] and [epoch_len > 0]. *)

val adversary : base:Graphs.Dual.t -> epoch_len:float -> seed:int -> t
(** Frontier-chasing adversary: on first entry to each epoch it
    withdraws every pool edge crossing the message frontier (some
    message known at exactly one endpoint, per its {!Oracle}) and keeps
    the rest; while blind (no probes yet) the full pool is up.  On the
    Figure 2 network this reproduces the two-line adversary of
    Theorem 3.17.  [seed] reserved for stochastic variants. *)

(** {1 Readers} *)

val base : t -> Graphs.Dual.t
(** The union dual: [G] plus the full extras pool. *)

val epoch_len : t -> float
(** The stability parameter [T]; [infinity] for {!static}. *)

val epoch_of_time : t -> float -> int
(** The epoch whose window [[e*T, (e+1)*T)] contains the given
    sim-time; [0] for {!static} and for times [<= 0]. *)

val pool_size : t -> int
val is_static : t -> bool

val kind_name : t -> string
(** ["static" | "flap" | "churn" | "adversary"] — the scenario-file
    vocabulary. *)

val oracle : t -> Oracle.t option
(** The adversary's knowledge map; [None] for the other kinds. *)

(** {1 Mutator (A6: lib/dyn and lib/amac only)} *)

val extras_at : t -> epoch:int -> (int * int) array
(** The extras up during [epoch], sorted ascending, always a subset of
    the pool.  Pure for static/flap/churn; the adversary memoizes its
    choice at first entry (re-querying an old epoch returns the
    recorded choice, not a re-evaluation against newer knowledge).
    Requires [epoch >= 0]. *)
