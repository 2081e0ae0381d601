(* Deterministic traversal over [Hashtbl].

   OCaml's hash tables iterate in an order that depends on the hash seed
   and insertion history, so [Hashtbl.iter]/[Hashtbl.fold] in a seeded
   simulation silently break bit-for-bit replay (especially under
   [OCAMLRUNPARAM=R], which randomizes hashing per table).  Every hot-path
   traversal must instead go through these helpers, which snapshot the
   bindings and order them by key under an explicit typed comparator.

   This file is the single place allowed to call [Hashtbl.fold] directly;
   it is entered in [analysis.allow] for lint rule D1.

   Tables populated with [Hashtbl.add] duplicates yield every binding; the
   codebase is [Hashtbl.replace]-only, so keys are unique in practice. *)

let to_sorted_list ~cmp t =
  List.sort
    (fun (a, _) (b, _) -> cmp a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

let sorted_keys ~cmp t =
  List.sort cmp (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

let sorted_iter ~cmp f t =
  List.iter (fun (k, v) -> f k v) (to_sorted_list ~cmp t)

let sorted_fold ~cmp f t init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (to_sorted_list ~cmp t)

(* Raw hash-order traversal, restricted by contract to callbacks whose
   effects commute (pure per-binding field writes, counter bumps): for
   those the final state is independent of visit order, so no snapshot or
   sort is owed.  Anything order-sensitive — emitting output, choosing a
   representative, feeding an RNG or a policy — must use [sorted_iter].
   The name is the audit trail: call sites assert commutativity by
   choosing this function (see lint rule D1's message). *)
let iter_commutative f t = Hashtbl.iter f t
