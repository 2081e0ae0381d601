(* D6 fixture (named for the deleted rule R3): Domain.DLS outside lib/exec
   and lib/pdes.  All three references fire; silent under both. *)
let k = Domain.DLS.new_key (fun () -> 0)

let get () = Domain.DLS.get k

let set v = Domain.DLS.set k v
