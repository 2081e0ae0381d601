(* The adversary's knowledge map: which nodes have received which
   messages.  Fed from the MAC's delivered-set probes (Dyn.Dual relays
   [note_bcast]/[note_delivery] here); read by the adversarial schedule
   to find the message frontier.  One growable bitset per node, indexed
   by message id, so the frontier test on an edge is a row comparison. *)

type t = {
  n : int;
  known : Dsim.Bitset.t array; (* row u = u's known-message ids *)
  mutable notes : int; (* count of newly-set bits, for [any_known] *)
}

let create ~n =
  if n < 1 then invalid_arg "Oracle.create: need n >= 1";
  { n; known = Array.init n (fun _ -> Dsim.Bitset.create ~width:8); notes = 0 }

let n t = t.n

let knows t ~node ~msg =
  node >= 0 && node < t.n && Dsim.Bitset.mem t.known.(node) msg

let note t ~node ~msg =
  if node < 0 || node >= t.n then invalid_arg "Oracle.note: node out of range";
  if msg < 0 then invalid_arg "Oracle.note: negative message id";
  if not (Dsim.Bitset.test_and_add t.known.(node) msg) then
    t.notes <- t.notes + 1

let any_known t = t.notes > 0

(* An edge crosses the message frontier iff some message is known at
   exactly one endpoint: the two rows differ. *)
let crosses t u v =
  u >= 0 && v >= 0 && u < t.n && v < t.n
  && not (Dsim.Bitset.equal t.known.(u) t.known.(v))

let informed t ~node =
  if node < 0 || node >= t.n then 0 else Dsim.Bitset.cardinal t.known.(node)
