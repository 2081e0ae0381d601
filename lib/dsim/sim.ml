exception Causality of { now : float; requested : float }

type handle = Heap.handle

let no_event = Heap.none

type handler = int

type cat_stat = {
  cat_name : string;
  mutable cat_events : int;
  mutable cat_wall : float;
}

(* Every queued event's payload lives in arrays indexed by its heap slot:
   its category ([cats], a dense interned id, -1 = uncategorized, so the
   per-event accounting in [exec] is an array index, not a string
   lookup; a posted event's is its handler's) and either a thunk
   ([kinds] = -1, [thunks]) or a registered handler ([kinds] = its id)
   with an int argument ([args]).  A slot is free again once its event
   pops, so the arrays are as long as the most events ever queued at
   once, and a posted event allocates nothing.  A freed slot keeps its
   last thunk until a thunk reuses it: clearing it would cost a write
   barrier per event, and a simulation's queue dies with it. *)
type t = {
  clock : float array; (* [| now |]: an unboxed cell, written by the heap *)
  queue : Heap.t;
  mutable cats : int array;
  mutable kinds : int array;
  mutable args : int array;
  mutable thunks : (unit -> unit) array;
  mutable handlers : (int -> unit) array;
  mutable handler_cats : int array; (* by handler: its category id *)
  mutable n_handlers : int;
  mutable stopping : bool;
  mutable executed : int;
  (* Interned categories, by id in order of first use (deterministic).
     They are a handful of literals, so [intern] scans them instead of
     hashing. *)
  mutable cat_stats : cat_stat array;
  mutable n_cats : int;
  mutable wall_clock : (unit -> float) option;
  (* [| delay |]: [schedule]'s, handed to the heap.  Last, after the
     fields the event loop reads: between [clock] and [queue] it cost
     the benchmark's mega_line workload 2-4% of its events per second. *)
  delay : float array;
}

type outcome = Drained | Hit_time_limit | Hit_event_limit | Stopped

let nop () = ()

let create () =
  { clock = [| 0. |]; queue = Heap.create (); cats = [||]; kinds = [||];
    args = [||]; thunks = [||]; handlers = [||]; handler_cats = [||];
    n_handlers = 0; stopping = false; executed = 0; cat_stats = [||];
    n_cats = 0; wall_clock = None; delay = [| 0. |] }

let now t = t.clock.(0)

(* The id of category [name], scanning from id [i] and adding [name] at
   the end if it is new. *)
let rec intern t name i =
  if i < t.n_cats then
    if String.equal t.cat_stats.(i).cat_name name then i
    else intern t name (i + 1)
  else begin
    let stat = { cat_name = name; cat_events = 0; cat_wall = 0. } in
    let cap = Array.length t.cat_stats in
    if i = cap then begin
      let stats = Array.make (if cap = 0 then 8 else 2 * cap) stat in
      Array.blit t.cat_stats 0 stats 0 cap;
      t.cat_stats <- stats
    end;
    t.cat_stats.(i) <- stat;
    t.n_cats <- i + 1;
    i
  end

let grown a fill =
  let cap = Array.length a in
  let a' = Array.make (if cap = 0 then 16 else 2 * cap) fill in
  Array.blit a 0 a' 0 cap;
  a'

(* The payload slot of a freshly pushed event, growing the slot arrays
   the first time the heap hands out a new slot. *)
let slot_of t h =
  let slot = Heap.slot h in
  if slot = Array.length t.kinds then begin
    t.cats <- grown t.cats (-1);
    t.kinds <- grown t.kinds (-1);
    t.args <- grown t.args 0;
    t.thunks <- grown t.thunks nop
  end;
  slot

let set_thunk t h cat f =
  let slot = slot_of t h in
  t.cats.(slot) <- cat;
  t.kinds.(slot) <- -1;
  t.thunks.(slot) <- f;
  h

let cat_id t = function None -> -1 | Some name -> intern t name 0

let schedule_at ?cat t ~time f =
  if time < t.clock.(0) then
    raise (Causality { now = t.clock.(0); requested = time });
  let cat = cat_id t cat in
  set_thunk t (Heap.push t.queue ~time) cat f

let schedule ?cat t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule: negative delay";
  let cat = cat_id t cat in
  t.delay.(0) <- delay;
  set_thunk t (Heap.push_after t.queue ~now:t.clock ~delays:t.delay ~at:0) cat f

let register ?cat t fn =
  let id = t.n_handlers in
  if id = Array.length t.handlers then begin
    t.handlers <- grown t.handlers ignore;
    t.handler_cats <- grown t.handler_cats (-1)
  end;
  t.handlers.(id) <- fn;
  t.handler_cats.(id) <- cat_id t cat;
  t.n_handlers <- id + 1;
  id

let post t ~delays ~at handler arg =
  if delays.(at) < 0. then invalid_arg "Sim.post: negative delay";
  if handler < 0 || handler >= t.n_handlers then
    invalid_arg "Sim.post: handler id out of range for this simulation";
  let h = Heap.push_after t.queue ~now:t.clock ~delays ~at in
  let slot = slot_of t h in
  t.cats.(slot) <- t.handler_cats.(handler);
  t.kinds.(slot) <- handler;
  t.args.(slot) <- arg;
  h

let cancel t handle = Heap.cancel t.queue handle

let pending t = Heap.length t.queue

let stop t = t.stopping <- true

let executed_events t = t.executed

let set_wall_clock t clock = t.wall_clock <- Some clock

let cat_interned t = t.n_cats

let category_stats t =
  List.init t.n_cats (fun i ->
      let c = t.cat_stats.(i) in
      (c.cat_name, c.cat_events, c.cat_wall))
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
[@@mmb.alloc_ok "post-run reporting, never on the per-event path"]

let next_time t = Heap.min_time t.queue

let heap_high_water t = Heap.high_water t.queue
let heap_pushes t = Heap.pushes t.queue
let cancelled_events t = Heap.cancelled t.queue

(* Run the event in [slot].  Its payload is read before the callback
   runs: the callback may schedule into the slot, which is free now. *)
let invoke t slot =
  let kind = t.kinds.(slot) in
  if kind < 0 then t.thunks.(slot) () else t.handlers.(kind) t.args.(slot)

let exec t slot =
  let cat = t.cats.(slot) in
  (if cat < 0 then invoke t slot
   else
     let c = t.cat_stats.(cat) in
     c.cat_events <- c.cat_events + 1;
     match t.wall_clock with
     | None -> invoke t slot
     | Some clock ->
         let t0 = clock () in
         invoke t slot;
         c.cat_wall <- c.cat_wall +. (clock () -. t0));
  t.executed <- t.executed + 1

let run ?until ?max_events t =
  t.stopping <- false;
  let budget = match max_events with None -> max_int | Some m -> m in
  (* Without [until] every time is due: no time exceeds [infinity]. *)
  let horizon = match until with None -> infinity | Some h -> h in
  let executed = ref 0 in
  let outcome = ref Drained in
  let running = ref true in
  while !running do
    if t.stopping then begin
      outcome := Stopped;
      running := false
    end
    else if !executed >= budget then begin
      outcome := Hit_event_limit;
      running := false
    end
    else begin
      (* One root traversal per event: the pop writes the event's time
         straight into the clock cell. *)
      let slot = Heap.pop_until t.queue ~until:horizon ~time:t.clock in
      if slot >= 0 then begin
        exec t slot;
        incr executed
      end
      else begin
        if not (Heap.is_empty t.queue) then begin
          (* The clock moves to the horizon, never back. *)
          if horizon > t.clock.(0) then t.clock.(0) <- horizon;
          outcome := Hit_time_limit
        end;
        running := false
      end
    end
  done;
  !outcome
