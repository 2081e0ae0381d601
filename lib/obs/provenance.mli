(** Message provenance DAGs derived from the MAC event stream.

    For each MMB message the collector records which broadcast instance
    first carried it to each node — the causal edge behind the node's
    first receipt.  Roots are environment injections ([Arrive]); every
    other vertex has exactly one incoming edge whose source knew the
    message strictly earlier, so the graph is acyclic by construction.

    Each edge also splits the hop into the completion-time components of
    the paper's Section 5 analysis:

    - [queue]: broadcast time minus the sender's first-knowledge time —
      protocol/MAC queueing plus frontier wait at the sender;
    - [mac]: receipt time minus broadcast time — the in-flight latency
      the Fack/Fprog bounds govern;

    and the per-message summary carries the accumulated split along the
    critical path (the causal chain ending at the latest receipt).  The
    summary's [complete] and [reached] come from the run's delivery
    ledger ({!Mmb.Problem}): when the message reached its origin's whole
    G-component, and how many nodes have delivered it.

    Export is JSONL, schema ["mmb-provenance/1"]: a [meta] line, then per
    message (ascending id) a [msg] summary, its [root], and its
    [receipt] edges in event order.  Deterministic byte-for-byte for a
    deterministic event source. *)

type t

val schema : string
(** ["mmb-provenance/1"]. *)

val create : ?meta:(string * Dsim.Json.t) list -> n:int -> unit -> t
(** [n] is the node count, stamped into the meta line with [meta]. *)

val on_entry : t -> Dsim.Trace.entry -> unit

val attach : t -> Mmb.Problem.tracker -> Dsim.Trace.t -> unit
(** Subscribe {!on_entry} to a live trace, keeping the run's ledger for
    the export's [complete] and [reached] (without one they read [null]
    and 0). *)

(** {1 Inspection} *)

type receipt = {
  r_msg : int;
  r_node : int;
  r_time : float;
  r_inst : int;  (** the broadcast instance that carried the message *)
  r_src : int option;
      (** sender, or [None] if the instance's [Bcast] was never observed
          (e.g. a ring-buffer trace that evicted it) *)
  r_bcast : float;
  r_queue : float;
  r_mac : float;
  r_depth : int;  (** causal hops from the root *)
  r_cum_queue : float;
  r_cum_mac : float;
}

val receipts : t -> int -> receipt list
(** First-receipt edges for one message, event order. *)

val root : t -> int -> (int * float) option
(** Origin node and arrival time of a message's root. *)

val messages : t -> int list
(** Message ids seen, ascending. *)

(** {1 Export} *)

val jsonl : t -> string list
(** The export lines, in file order (no trailing newline per line). *)

val to_file : t -> path:string -> unit

val validate_string : string -> (int, string) result
(** Checks schema stamp and per-line shape; returns the line count.
    Used by [mmb_sim trace-validate] for [.jsonl] files. *)

val validate_file : path:string -> (int, string) result
