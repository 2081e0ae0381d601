(** Serialization of execution traces as JSON-lines, for inspection with
    external tooling (jq, pandas, ...) and for archiving runs.

    Each entry becomes one JSON object, e.g.
    [{"t":1.5,"e":"rcv","node":3,"msg":9,"inst":4}].
    The format round-trips exactly: [of_jsonl (to_jsonl tr)] reproduces the
    entries of [tr]. *)

val entry_to_json : Trace.entry -> string

val to_jsonl : Trace.t -> string
(** One line per entry, oldest first, trailing newline. *)

val write_file : Trace.t -> path:string -> unit

val entry_of_line : string -> (Trace.entry, string) result
(** Parses one line of the {!to_jsonl} format.  The streaming merge in
    lib/pdes reads per-partition spill files line by line through this,
    so a million-node trace is merged without ever being resident. *)

(** {1 Streamed-to-disk sink}

    A {!sink} subscribes to a trace and appends every recorded entry to
    a JSONL file as it happens.  Combined with a disabled trace
    ([Trace.create ~enabled:false]) this replaces ring retention for
    runs too large to hold in memory: the trace object keeps nothing,
    the file holds everything.  The sink must be closed (flushing the
    channel) before the file is read back; entries recorded after
    {!sink_close} raise through the underlying channel. *)

type sink

val sink_create : path:string -> sink
val sink_write : sink -> Trace.entry -> unit
val sink_written : sink -> int
val sink_close : sink -> unit

val stream_file : Trace.t -> path:string -> sink
(** [stream_file trace ~path] subscribes a fresh sink to [trace] and
    returns it (close it when the run finishes). *)

val of_jsonl : string -> (Trace.entry list, string) result
(** Parses the exact format produced by {!to_jsonl}; the error string names
    the first offending line. *)

val read_file : path:string -> (Trace.entry list, string) result

val check : n:int -> Trace.entry list -> (unit, string) result
(** What parsing cannot see, checked before a trace is used against an
    [n]-node network: every entry names one of its nodes, and every
    [Rcv], [Ack] and [Abort] names an instance an earlier [Bcast]
    started.  The error names the first offending entry as ["line N"],
    counting entries from 1 as {!of_jsonl} counts lines. *)
