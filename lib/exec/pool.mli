(** Domain worker pool — the tree's only home for parallel primitives
    (lint D6).

    While the pool runs, {!Obs.Global} is redirected to per-domain
    registries, so worker jobs never race on the shared engine counters;
    measure each job's delta inside [f]. *)

val run : jobs:int -> tasks:int -> (int -> unit) -> unit
(** Apply [f] to every index in [[0, tasks)] using at most [jobs] domains
    (the caller included).  [jobs <= 1] executes sequentially on the
    calling domain with the same per-job registry isolation.  Returns
    after all indices complete; worker writes to distinct slots are
    visible to the caller.  An exception in [f] propagates (the campaign
    layer treats job code as trusted). *)

val self_index : unit -> int
(** Small integer identifying the current domain (temp-file
    discrimination for workers racing on duplicate digests). *)

val available_parallelism : unit -> int
(** [Domain.recommended_domain_count], at least 1.  Command-line layers
    clamp a requested [--jobs N] to this: domains beyond the core count
    only add multicore-GC overhead (the merge stays deterministic either
    way, so the clamp never changes output). *)

val resolve_jobs : requested:int -> int
(** The shared CLI convention for domain counts ([campaign --jobs],
    [run --domains]): [requested <= 0] means "auto" and resolves to
    {!available_parallelism}; positive requests are clamped to it.
    Always at least 1. *)
