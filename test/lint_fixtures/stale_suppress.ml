(* Stale-hatch fixture: the comment below suppresses nothing. *)
(* analysis: allow D1 — nothing here iterates a Hashtbl *)
let double x = 2 * x
