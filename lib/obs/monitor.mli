(** The streaming compliance checker under its older name: an alias of
    {!Amac.Compliance}, which is the one implementation of the five MAC
    axioms.  New code should use {!Amac.Compliance} directly;
    {!Observer.create} wires its metrics. *)

include module type of struct
  include Amac.Compliance
end
