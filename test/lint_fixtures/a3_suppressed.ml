(* Stale-hatch fixture: both hatches name A3, an id with no rule. *)
(* analysis: allow A3 — deliberate singleton for this fixture *)
let counter = ref 0

let cache = Hashtbl.create 16 (* analysis: allow A3 *)
