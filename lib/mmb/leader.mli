(** Leader election on the standard abstract MAC layer.

    Section 5 names leader election as the natural next problem for this
    model; this module implements the canonical flooding-max protocol as an
    extension: every node floods the largest id it has seen, suppressing
    re-broadcasts that carry no news.  On any dual graph and any compliant
    scheduler, each G-component converges to its maximum id — unreliable
    links can only accelerate agreement, never break it, because the
    maximum is idempotent and monotone (the same structural reason BMMB
    stays correct under arbitrary G', Theorem 3.4). *)

type result = {
  leaders : int array;  (** per node, the elected leader's id *)
  elected : bool;  (** every component agreed on its maximum id *)
  time : float;  (** time of the last belief change *)
  bcasts : int;
}

val run :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:int Amac.Mac_intf.policy ->
  seed:int ->
  ?ids:int array ->
  ?check_compliance:bool ->
  ?max_events:int ->
  unit ->
  result * Amac.Compliance.violation list
(** [ids] are the (distinct) identities to elect over, defaulting to the
    node indices themselves. *)

val flood :
  dual:Graphs.Dual.t ->
  fack:float ->
  fprog:float ->
  policy:'a Amac.Mac_intf.policy ->
  seed:int ->
  check_compliance:bool ->
  max_events:int ->
  'a array ->
  ('a array * float * int) * Amac.Compliance.violation list
(** The flooding-max run behind {!run} and {!Consensus.run}, from node
    [v]'s value [init.(v)]: each node's final value, the time of the
    last change, the bcast count, and the axiom violations. *)
