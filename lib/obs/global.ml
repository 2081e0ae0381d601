type snap = {
  runs : int;
  events : int;
  pushes : int;
  cancelled : int;
  heap_high_water : int;
  bcasts : int;
  rcvs : int;
  acks : int;
  forced : int;
  cat_interned : int;
}

let zero =
  {
    runs = 0;
    events = 0;
    pushes = 0;
    cancelled = 0;
    heap_high_water = 0;
    bcasts = 0;
    rcvs = 0;
    acks = 0;
    forced = 0;
    cat_interned = 0;
  }

(* The main registry.  Callers deep in the simulation stack (Mmb.Runner
   above all) note counters here ambiently; a campaign runner that fans
   runs across domains installs a resolver redirecting each worker to its
   own registry (Exec.Pool does this with domain-local storage), so the
   registry itself stays free of parallel primitives (lint D6).  The
   resolver is only swapped from the main domain while no workers run. *)
let main_registry = ref zero

let resolver : (unit -> snap ref) ref = ref (fun () -> main_registry)

let set_resolver f = resolver := f

let clear_resolver () = resolver := fun () -> main_registry

let registry () = !resolver ()

let snapshot () = !(registry ())

let reset () = registry () := zero

let note_sim sim =
  let r = registry () in
  let s = !r in
  r :=
    {
      s with
      runs = s.runs + 1;
      events = s.events + Dsim.Sim.executed_events sim;
      pushes = s.pushes + Dsim.Sim.heap_pushes sim;
      cancelled = s.cancelled + Dsim.Sim.cancelled_events sim;
      heap_high_water = max s.heap_high_water (Dsim.Sim.heap_high_water sim);
      cat_interned = max s.cat_interned (Dsim.Sim.cat_interned sim);
    }

let note_mac ~bcasts ~rcvs ~acks ~forced =
  let r = registry () in
  let s = !r in
  r :=
    {
      s with
      bcasts = s.bcasts + bcasts;
      rcvs = s.rcvs + rcvs;
      acks = s.acks + acks;
      forced = s.forced + forced;
    }

let snap_to_json s =
  let n v = Dsim.Json.Number (float_of_int v) in
  Dsim.Json.Obj
    [
      ("runs", n s.runs);
      ("events", n s.events);
      ("pushes", n s.pushes);
      ("cancelled", n s.cancelled);
      ("heap_high_water", n s.heap_high_water);
      ("bcasts", n s.bcasts);
      ("rcvs", n s.rcvs);
      ("acks", n s.acks);
      ("forced", n s.forced);
      ("cat_interned", n s.cat_interned);
    ]

let snap_of_json json =
  let ( let* ) = Result.bind in
  let* runs = Dsim.Json.member_int json "runs" ~default:0 in
  let* events = Dsim.Json.member_int json "events" ~default:0 in
  let* pushes = Dsim.Json.member_int json "pushes" ~default:0 in
  let* cancelled = Dsim.Json.member_int json "cancelled" ~default:0 in
  let* heap_high_water = Dsim.Json.member_int json "heap_high_water" ~default:0 in
  let* bcasts = Dsim.Json.member_int json "bcasts" ~default:0 in
  let* rcvs = Dsim.Json.member_int json "rcvs" ~default:0 in
  let* acks = Dsim.Json.member_int json "acks" ~default:0 in
  let* forced = Dsim.Json.member_int json "forced" ~default:0 in
  (* default 0: cache entries written before this field existed stay
     valid. *)
  let* cat_interned = Dsim.Json.member_int json "cat_interned" ~default:0 in
  Ok
    {
      runs;
      events;
      pushes;
      cancelled;
      heap_high_water;
      bcasts;
      rcvs;
      acks;
      forced;
      cat_interned;
    }
