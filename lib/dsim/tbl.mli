(** Deterministic traversal over [Hashtbl].

    Hash-table iteration order depends on the hash seed and insertion
    history, so raw [Hashtbl.iter]/[Hashtbl.fold] silently breaks
    bit-for-bit replay of seeded simulations (lint rule D1).  These
    helpers snapshot the bindings and order them by key under an explicit
    typed comparator.

    Tables populated with [Hashtbl.add] duplicates yield every binding;
    the codebase is [Hashtbl.replace]-only, so keys are unique in
    practice. *)

val to_sorted_list : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings, sorted by key under [cmp]. *)

val sorted_keys : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list
(** All keys, sorted under [cmp]. *)

val sorted_iter :
  cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [Hashtbl.iter] in ascending key order. *)

val sorted_fold :
  cmp:('k -> 'k -> int) ->
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
(** [Hashtbl.fold] in ascending key order. *)

val iter_commutative : ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [Hashtbl.iter] in raw hash order, with no snapshot and no sort — O(n)
    and allocation-free.  Only legal when [f]'s effects commute across
    bindings (e.g. cancelling independent events, bumping counters), so
    the final state cannot depend on traversal order.  Order-sensitive
    work must use {!sorted_iter}; lint rule D1's message points here. *)
