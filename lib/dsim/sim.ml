exception Causality of { now : float; requested : float }

(* [cat] is a dense interned id (-1 = uncategorized), so the per-event
   accounting in [exec] is an array index, not a string hash lookup. *)
type job = { cat : int; fn : unit -> unit }

type handle = job Heap.handle

let no_event = Heap.none

type cat_stat = {
  cat_name : string;
  mutable cat_events : int;
  mutable cat_wall : float;
}

type t = {
  mutable clock : float;
  queue : job Heap.t;
  mutable stopping : bool;
  mutable executed : int;
  cat_ids : (string, int) Hashtbl.t;
  mutable cat_stats : cat_stat array;
  mutable n_cats : int;
  (* One-slot intern cache: schedulers overwhelmingly pass the same
     category literal back-to-back, and the physical-equality probe skips
     even the hash lookup then.  Ids are derived from insertion order
     (deterministic), never from table traversal. *)
  mutable last_cat : string;
  mutable last_cat_id : int;
  mutable wall_clock : (unit -> float) option;
}

type outcome = Drained | Hit_time_limit | Hit_event_limit | Stopped

let create () =
  { clock = 0.; queue = Heap.create (); stopping = false; executed = 0;
    cat_ids = Hashtbl.create 16; cat_stats = [||]; n_cats = 0;
    last_cat = ""; last_cat_id = -1; wall_clock = None }

let now t = t.clock

let intern t name =
  if name == t.last_cat (* analysis: allow D4 — cache probe only, miss falls through *)
  then t.last_cat_id
  else begin
    let id =
      match Hashtbl.find_opt t.cat_ids name with
      | Some id -> id
      | None ->
          let id = t.n_cats in
          Hashtbl.replace t.cat_ids name id;
          let stat = { cat_name = name; cat_events = 0; cat_wall = 0. } in
          let cap = Array.length t.cat_stats in
          if id = cap then begin
            let stats = Array.make (if cap = 0 then 8 else 2 * cap) stat in
            Array.blit t.cat_stats 0 stats 0 cap;
            t.cat_stats <- stats
          end;
          t.cat_stats.(id) <- stat;
          t.n_cats <- id + 1;
          id
    in
    t.last_cat <- name;
    t.last_cat_id <- id;
    id
  end

let schedule_at ?cat t ~time f =
  if time < t.clock then raise (Causality { now = t.clock; requested = time });
  let cat = match cat with None -> -1 | Some name -> intern t name in
  Heap.push t.queue ~time { cat; fn = f }

let schedule ?cat t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule: negative delay";
  schedule_at ?cat t ~time:(t.clock +. delay) f

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

let next_time t =
  match Heap.peek_time t.queue with None -> infinity | Some time -> time
let heap_high_water t = Heap.high_water t.queue
let heap_pushes t = Heap.pushes t.queue
let cancelled_events t = Heap.cancelled t.queue

let exec t { cat; fn } =
  (if cat < 0 then fn ()
   else
     let c = t.cat_stats.(cat) in
     c.cat_events <- c.cat_events + 1;
     match t.wall_clock with
     | None -> fn ()
     | Some clock ->
         let t0 = clock () in
         fn ();
         c.cat_wall <- c.cat_wall +. (clock () -. t0));
  t.executed <- t.executed + 1

let run ?until ?max_events t =
  t.stopping <- false;
  let budget = match max_events with None -> max_int | Some m -> m in
  let rec loop executed =
    if t.stopping then Stopped
    else if executed >= budget then Hit_event_limit
    else
      (* Single queue traversal per event: the old peek-then-pop walked the
         dead-root drain twice. *)
      match Heap.pop_if_before ?horizon:until t.queue with
      | Heap.Empty -> Drained
      | Heap.Later _ ->
          (match until with
          | Some horizon -> t.clock <- Float.max t.clock horizon
          | None -> assert false);
          Hit_time_limit
      | Heap.Due (time, job) ->
          t.clock <- time;
          exec t job;
          loop (executed + 1)
  in
  loop 0
