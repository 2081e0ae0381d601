(* Fixture: D1 hit silenced by a same-line suppression comment. *)
let cardinal t = Hashtbl.fold (fun _ () acc -> acc + 1) t 0 (* analysis: allow D1 *)

(* analysis: allow D1 — counting is order-independent *)
let cardinal' t = Hashtbl.fold (fun _ () acc -> acc + 1) t 0
