(* R1/R4 fixture (named for the deleted rule A3): top-level mutable state
   at module init.  The function-local creators must NOT be flagged. *)
let counter = ref 0

let cache = Hashtbl.create 16

let derived = (Buffer.create 64, 3)

let per_call () =
  let local = ref 0 in
  incr local;
  !local

let lazy_state = lazy (Hashtbl.create 8)
