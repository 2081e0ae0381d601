(** Process-global engine-cost accumulators.

    {!Run} notes every BMMB run's engine and MAC counters here
    unconditionally (integer additions — no observable cost), so a
    harness that drives runs without wiring an {!Observer} can still
    attribute engine cost to a window by {!reset} before and {!snapshot}
    after: the campaign runner does this per job, the wall-clock
    benchmark per workload.  (The protocol-layer [Mmb.Runner] itself
    notes nothing: check A1 keeps it ignorant of this module.)

    The accumulators live in a {e registry}.  By default there is exactly
    one, used by everything on the main domain.  A parallel campaign
    runner ({!Exec.Pool}) installs a {!set_resolver} redirecting each
    worker domain to its own registry — this module itself deliberately
    contains no parallel primitives (lint D6). *)

type snap = {
  runs : int;  (** simulations completed *)
  events : int;  (** callbacks executed *)
  pushes : int;  (** events scheduled *)
  cancelled : int;  (** events cancelled while pending *)
  heap_high_water : int;  (** max pending events in any single run *)
  bcasts : int;
  rcvs : int;
  acks : int;
  forced : int;  (** watchdog-forced deliveries *)
  cat_interned : int;
      (** max distinct event categories interned by any one engine
          (a running max, like [heap_high_water]) *)
}

val zero : snap

val snapshot : unit -> snap

val reset : unit -> unit

val note_sim : Dsim.Sim.t -> unit
(** Fold one finished simulation's engine counters into the totals. *)

val note_mac : bcasts:int -> rcvs:int -> acks:int -> forced:int -> unit

val set_resolver : (unit -> snap ref) -> unit
(** Redirect all accumulator traffic through [f]: every operation above
    acts on [f ()].  Install only from the main domain while no workers
    are running; {!Exec.Pool} wraps worker fan-out with this. *)

val clear_resolver : unit -> unit
(** Restore the default single-registry behaviour. *)

val snap_to_json : snap -> Dsim.Json.t
(** Bare counter object, for campaign cache entries. *)

val snap_of_json : Dsim.Json.t -> (snap, string) result
