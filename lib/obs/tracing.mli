(** Chrome-trace-event (Perfetto / catapult) export.

    A {!t} accumulates trace events; {!to_string} wraps them in the JSON
    object container ([{"traceEvents":[...],...}]) that chrome://tracing
    and {{:https://ui.perfetto.dev}Perfetto} load directly.  Virtual
    simulation time maps 1 time unit -> 1 trace millisecond.

    Determinism: emitters serialize in call order through {!Dsim.Json},
    and nothing here reads clocks — a deterministic event source yields
    a byte-identical file.  The campaign runner relies on this for its
    any-[--jobs N] trace-identity contract. *)

type t
(** A trace-event writer. *)

val create : unit -> t

val event_count : t -> int
(** Events emitted so far. *)

val schema : string
(** ["mmb-trace/1"], stamped into [otherData.schema]. *)

(** {1 Emitters}

    [pid]/[tid] select the process/thread track; [ts] and [dur] are in
    virtual time units (scaled to microseconds on output). *)

val process_name : t -> pid:int -> string -> unit
val thread_name : t -> pid:int -> tid:int -> string -> unit

val complete :
  t ->
  ?cat:string ->
  ?args:(string * Dsim.Json.t) list ->
  pid:int ->
  tid:int ->
  ts:float ->
  dur:float ->
  string ->
  unit
(** A ["X"] slice [\[ts, ts+dur\]]. *)

val instant :
  t ->
  ?cat:string ->
  ?args:(string * Dsim.Json.t) list ->
  pid:int ->
  tid:int ->
  ts:float ->
  string ->
  unit

val counter : t -> pid:int -> ts:float -> string -> (string * float) list -> unit
(** A ["C"] counter sample (rendered as a track graph). *)

val flow_start :
  t -> ?cat:string -> pid:int -> tid:int -> ts:float -> id:int -> string -> unit

val flow_finish :
  t -> ?cat:string -> pid:int -> tid:int -> ts:float -> id:int -> string -> unit
(** Arrow endpoints: one {!flow_start} with a fresh [id] per arrow, bound
    to the slice enclosing each endpoint. *)

val async_begin :
  t ->
  ?cat:string ->
  ?args:(string * Dsim.Json.t) list ->
  pid:int ->
  ts:float ->
  id:int ->
  string ->
  unit

val async_end :
  t ->
  ?cat:string ->
  ?args:(string * Dsim.Json.t) list ->
  pid:int ->
  ts:float ->
  id:int ->
  string ->
  unit

(** {1 Output} *)

val to_string : ?meta:(string * Dsim.Json.t) list -> t -> string
(** The complete trace document; [meta] lands in [otherData] next to the
    schema stamp. *)

val write_file : ?meta:(string * Dsim.Json.t) list -> t -> path:string -> unit

val validate_string : string -> (int, string) result
(** Checks the container shape and schema stamp; returns the event
    count.  The verify.sh trace smoke gate runs this via
    [mmb_sim trace-validate]. *)

val validate_file : path:string -> (int, string) result

(** {1 Simulation collector}

    Derives the standard track layout from a {!Dsim.Trace} event stream:

    - pid 1 ("simulation"): one thread per node.  [Arrive]/[Deliver]/
      [Rcv] are zero-width slices (anchors for flow arrows); each MAC
      instance is a slice on its sender's track from [Bcast] to
      [Ack]/[Abort] (or to the last observed time if never closed); a
      flow arrow links every [Bcast] to each [Rcv] it caused — the
      Fack/Fprog-bounded deliveries made visible per message.
    - pid 2 ("messages"): one async span per MMB message from [Arrive]
      to the [Deliver] that completes it: the first at which the run's
      delivery ledger ({!Mmb.Problem}) finds it at every node of its
      origin's G-component.
    - a "frontier" counter track sampling total deliveries. *)

module Sim : sig
  type collector

  val create : ?name:string -> unit -> collector

  val on_entry : collector -> Mmb.Problem.tracker -> Dsim.Trace.entry -> unit
  (** One entry, judged by the run's ledger, which must have taken every
      delivery up to and including this entry's. *)

  val attach : collector -> Mmb.Problem.tracker -> Dsim.Trace.t -> unit
  (** Subscribe {!on_entry} to a live trace. *)

  val finish : collector -> t
  (** Close still-open instance slices (sorted uid order) and return the
      underlying writer. *)
end
