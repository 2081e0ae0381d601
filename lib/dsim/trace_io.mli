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

(** {1 Streamed-to-disk sink}

    A {!sink} appends every entry it is given to a JSONL file;
    subscribing {!sink_write} to a trace ([Trace.subscribe]) streams the
    trace to the file as it is recorded.  Combined with a disabled trace
    ([Trace.create ~enabled:false]) this records runs too large to hold
    in memory: the trace object keeps nothing, the file holds
    everything.  The sink must be closed (flushing the channel) before
    the file is read back; entries recorded after {!sink_close} raise
    through the underlying channel. *)

type sink

val sink_create : path:string -> sink
val sink_write : sink -> Trace.entry -> unit
val sink_written : sink -> int
val sink_close : sink -> unit

val of_jsonl : string -> (Trace.entry list, string) result
(** Parses the format produced by {!to_jsonl}, each line with
    {!Json.parse}, so a torn or garbled line is an error rather than a
    wrong value; the error string names the first offending line
    (["line N: ..."], counting non-blank lines from 1). *)

val read_file : path:string -> (Trace.entry list, string) result

val check : n:int -> Trace.entry list -> (unit, string) result
(** What parsing cannot see, checked before a trace is used against an
    [n]-node network: every entry's time is finite, every entry names
    one of its nodes, and every [Rcv], [Ack] and [Abort] names an
    instance an earlier [Bcast] started, at or after that [Bcast]'s
    time.  The error names the first offending entry as ["line N"],
    counting entries from 1 as {!of_jsonl} counts lines. *)
