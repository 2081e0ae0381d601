(** The Basic Multi-Message Broadcast protocol (Section 3).

    Every node keeps a queue of messages to broadcast and a set of received
    messages.  On first learning a message (from the environment or the MAC
    layer) a node delivers it, appends it to the queue, and — whenever it is
    not waiting for an acknowledgment — broadcasts the message at the head
    of the queue; later copies are discarded.

    The protocol runs over any acknowledged local-broadcast layer (via
    {!Amac.Mac_handle}) with message bodies that are bare MMB payload ids
    ([int]).

    [discipline] generalizes the paper's FIFO queue for ablation studies:
    the paper proves its bounds for FIFO ([`Fifo]); [`Lifo] serves the
    "does the queue discipline matter?" ablation (E9). *)

type discipline = [ `Fifo | `Lifo ]

type t

val install :
  ?discipline:discipline ->
  ?relay:(int -> bool) ->
  mac:int Amac.Mac_handle.t ->
  on_deliver:(node:int -> msg:int -> time:float -> unit) ->
  unit ->
  t
(** Attach a BMMB automaton to every node of the MAC's network.  The
    handle may wrap the model ({!Amac.Standard_mac}) or any implementation
    of it (e.g. the Decay MAC of [Radio.Decay]).

    [relay] (default: everyone) restricts which nodes re-broadcast
    messages they merely received; every node still broadcasts its own
    arrivals and delivers everything it hears.  Pass a connected dominating
    set ({!Structuring}) to flood over a backbone. *)

val arrive : t -> node:int -> msg:int -> unit
(** Environment event [arrive(m)_i]: deliver locally and enqueue.
    Message ids are [>= 0] (every {!Problem} builder yields [0..k-1]);
    raises [Invalid_argument] on a negative one, and on a second arrival
    of a message the node already has. *)

val queue_length : t -> node:int -> int
(** Current [bcastq] length (for instrumentation). *)

val received : t -> node:int -> msg:int -> bool
(** Has the node gotten (arrive or rcv) this message? *)
