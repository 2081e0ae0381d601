(** Typed execution traces.

    A trace records every externally visible event of a simulated execution:
    problem-level events ([Arrive]/[Deliver]), MAC-level events
    ([Bcast]/[Rcv]/[Ack]/[Abort]), each tagged with its broadcast-instance
    id, which materializes the paper's "cause" function (Section 3.2.1) and
    lets {!Amac.Compliance} check executions as they run. *)

type event =
  | Arrive of { node : int; msg : int }
      (** the environment injects MMB message [msg] at [node] *)
  | Deliver of { node : int; msg : int }
      (** the protocol delivers MMB message [msg] at [node] *)
  | Bcast of { node : int; msg : int; instance : int }
      (** [node] hands [msg] to the MAC layer; starts instance [instance] *)
  | Rcv of { node : int; msg : int; instance : int }
      (** the MAC layer delivers instance [instance]'s message to [node] *)
  | Ack of { node : int; msg : int; instance : int }
      (** the MAC layer acknowledges instance [instance] to its sender *)
  | Abort of { node : int; msg : int; instance : int }
      (** the sender aborts instance [instance] (enhanced model only) *)

type entry = { time : float; event : event }

type t
(** A mutable, append-only event log. *)

val create : ?enabled:bool -> unit -> t
(** [create ()] is an empty trace that keeps every entry.  With
    [~enabled:false] it keeps none: runs record into such a trace, whose
    subscribers see each entry, so a run holds no memory in proportion to
    its length. *)

val enabled : t -> bool

val record : t -> time:float -> event -> unit
(** Append one event.  An enabled trace keeps it, but subscribers
    registered with {!subscribe} are always notified, even on a disabled
    trace — streaming consumers don't require retention.
    On a disabled trace with no subscribers this allocates nothing (the
    entry record is never built), so benchmark-configuration runs pay
    only the recorded-count increment; callers still guard the [event]
    construction itself (see [Amac.Standard_mac.tracing]). *)

val subscribe : t -> (entry -> unit) -> unit
(** Register a streaming consumer called synchronously on every
    {!record}, in registration order.  This is how {!Obs} derives spans
    and checks compliance online without retaining the full trace. *)

val length : t -> int
(** Number of kept entries: every recorded one, or 0 when disabled. *)

val recorded : t -> int
(** Total events ever recorded, records on a disabled trace included. *)

val entries : t -> entry list
(** The kept entries, oldest first, as a list built on each call. *)

val iter : t -> (entry -> unit) -> unit
(** Calls [f] on each kept entry, oldest first, without copying them. *)

val pp_event : Format.formatter -> event -> unit
val pp_entry : Format.formatter -> entry -> unit

val pp : Format.formatter -> t -> unit
(** Renders the whole trace, one entry per line. *)
