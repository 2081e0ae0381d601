(** A versioned dual graph: {!Graphs.Dual.t} driven by a {!Schedule}.

    Wraps the base dual with an epoch counter and a refresh path that
    rebuilds only the per-node neighbor rows the epoch actually dirtied
    ({!Graphs.Dual.with_g'}); the reliable graph [G], the embedding,
    and the reliability bitset are shared across every epoch.

    The static case degenerates to a pointer: {!of_static} pins the
    base dual and {!view} hands it back untouched, which is what makes
    a static graph expressed as a single-epoch schedule byte-identical
    (and cost-identical) to the plain static path.

    Capability note (check rule A6): {!view}, {!advance_to},
    {!note_bcast} and {!note_delivery} are the mutators — only lib/dyn
    and the MAC's plan-time consult (lib/amac) may call them.
    Constructors and the readers below are sanctioned everywhere;
    in particular the observability layer pins per-instance views via
    {!current} without ever stepping the epoch. *)

type t

val of_schedule : Schedule.t -> t
(** Starts at epoch 0 (already refreshed to epoch 0's extras for
    non-static kinds — churn may drop edges in its first window). *)

val of_static : Graphs.Dual.t -> t
(** [of_schedule (Schedule.static d)]: the degenerate wrapper. *)

(** {1 Readers (sanctioned everywhere)} *)

val current : t -> Graphs.Dual.t
(** The epoch-current dual.  Never advances the epoch — for static
    wrappers this is physically the base dual. *)

val base : t -> Graphs.Dual.t
(** The union dual the schedule was built over. *)

val epoch : t -> int
val is_static : t -> bool
val schedule : t -> Schedule.t

val refreshes : t -> int
(** How many epoch steps actually rebuilt adjacency (steps whose edge
    set equalled the previous epoch's are free and not counted). *)

(** {1 Mutators (A6: lib/dyn and lib/amac only)} *)

val view : t -> time:float -> Graphs.Dual.t
(** The dual in force at sim-time [time]: advances to the time's epoch
    if it is ahead of the current one (epochs never move backwards;
    queries inside or before the current window return {!current}
    unchanged).  This is the MAC's delivery-plan-time consult seam. *)

val advance_to : t -> epoch:int -> unit
(** Step directly to [epoch].  Raises [Invalid_argument] on a smaller
    epoch than the current one. *)

val note_bcast : t -> node:int -> msg:int -> unit
(** Delivered-set probes feeding the adversary's {!Oracle} ([bcast]:
    the sender knows its own message; [delivery]: the receiver learned
    it).  No-ops for schedules without an oracle. *)

val note_delivery : t -> node:int -> msg:int -> unit
