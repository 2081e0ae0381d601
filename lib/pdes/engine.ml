exception Domains_exceed_partitions of { domains : int; partitions : int }

type result = {
  complete : bool;
  time : float;
  bcasts : int;
  rcvs : int;
  acks : int;
  deliveries : int;
  remote_deliveries : int;
  events : int;
  windows : int;
  heap_high_water : int;
  partitions : int;
  domains : int;
  cut_edges : int;
  part_sizes : int array;
}

(* --- Barrier --------------------------------------------------------------

   One generation-counted barrier drives all windows.  The coordinator
   bumps [generation] with the window horizon published in [until];
   workers run their partitions to the horizon and decrement [running].
   Mutex acquire/release orders every cross-domain access to the megas,
   mailboxes, and heaps: workers touch partition state only between the
   generation bump and their decrement, the coordinator only while all
   workers are parked. *)
type barrier = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable generation : int;
  mutable until : float;
  mutable stop : bool;
  mutable running : int;
}

let worker_loop b run_mine =
  let gen = ref 0 in
  let live = ref true in
  while !live do
    Mutex.lock b.mutex;
    while b.generation = !gen && not b.stop do
      Condition.wait b.cond b.mutex
    done;
    let stop = b.stop in
    let until = b.until in
    gen := b.generation;
    Mutex.unlock b.mutex;
    if stop then live := false
    else begin
      run_mine until;
      Mutex.lock b.mutex;
      b.running <- b.running - 1;
      if b.running = 0 then Condition.broadcast b.cond;
      Mutex.unlock b.mutex
    end
  done

(* --- Per-window trace merge ------------------------------------------------

   Each partition records into a private, retention-free trace whose one
   subscriber appends to that partition's [pending] queue, on whichever
   domain runs it.  After a window with horizon [h], no partition can
   record an entry earlier than [h]: every due partition ran up to [h]
   inclusive, and remote deliveries land at [h] or later.  So the
   coordinator records into the caller's trace every pending entry
   earlier than [h], holds the rest for the next window, and flushes
   what is left after the last one.  Within a partition an [ack] can
   precede same-time events it caused (its callback records the ack,
   then the next bcast), so entries of one time are recorded
   non-terminating first (partition order, then record order), then
   terminating.  The order is a pure function of the queues, so the
   trace is identical however partitions map onto domains, and the
   caller's subscribers run only here: on the coordinator, between
   windows. *)

let is_terminating { Dsim.Trace.event; _ } =
  match event with
  | Dsim.Trace.Ack _ | Dsim.Trace.Abort _ -> true
  | _ -> false

(* The run of [q]'s entries at exactly [time], taken off [q]. *)
let take_run ~time q =
  let rec go acc =
    if
      (not (Queue.is_empty q))
      && Float.equal (Queue.peek q).Dsim.Trace.time time
    then go (Queue.take q :: acc)
    else List.rev acc
  in
  go []

(* Record into [trace], in the order above, every pending entry earlier
   than [horizon], one timestamp at a time; the rest stays queued.  A
   partition records in time order, so each queue's head is its
   earliest entry. *)
let rec merge_before ~trace pending horizon =
  let time =
    Array.fold_left
      (fun t q ->
        if Queue.is_empty q then t
        else Float.min t (Queue.peek q).Dsim.Trace.time)
      horizon pending
  in
  if time < horizon then begin
    let runs = Array.map (take_run ~time) pending in
    let record terminating =
      Array.iter
        (List.iter (fun e ->
             if is_terminating e = terminating then
               Dsim.Trace.record trace ~time e.Dsim.Trace.event))
        runs
    in
    record false;
    record true;
    merge_before ~trace pending horizon
  end

(* --- Engine ---------------------------------------------------------------

   [next.(p)] is partition [p]'s earliest pending event time ([infinity]
   when its heap is empty), so the window's start [tau] is a scan of P
   floats.  A window runs only the partitions with an event due by its
   horizon: {!Dsim.Sim.run} on any other would execute nothing and only
   move that partition's clock to the horizon, which no callback reads
   (each reads the clock at its own event's time), so skipping it leaves
   the execution unchanged. *)

(* Run domain [w]'s partitions ([p mod domains = w]) that have an event
   due by [until], and record each one's next event time. *)
let run_due ~sims ~next ~domains w until =
  (* One option for all of the window's runs here, not one per run. *)
  let horizon = Some until in
  for i = 0 to (Array.length sims - 1 - w) / domains do
    let p = w + (i * domains) in
    if next.(p) <= until then begin
      ignore (Dsim.Sim.run ?until:horizon sims.(p));
      next.(p) <- Dsim.Sim.next_time sims.(p)
    end
  done

let run ~dual ?mk_dyn ~fprog ~assignment ~seed ~partitions ~domains ?trace () =
  if partitions < 1 then invalid_arg "Pdes.Engine.run: need partitions >= 1";
  if domains < 1 then invalid_arg "Pdes.Engine.run: need domains >= 1";
  if domains > partitions then
    raise (Domains_exceed_partitions { domains; partitions });
  if List.exists (fun (_, msg) -> msg < 0) assignment then
    invalid_arg "Pdes.Engine.run: message ids must be >= 0";
  (* The serial engine's tracker rejects a repeated id with this message;
     completion below counts one delivery per node per distinct id. *)
  let messages = List.length assignment in
  if List.length (List.sort_uniq Int.compare (List.map snd assignment))
     <> messages
  then invalid_arg "Problem.tracker: duplicate message id in assignment";
  let gprime = Graphs.Dual.unreliable dual in
  let part = Graphs.Partition.blocks gprime ~parts:partitions in
  (* Ids index Mega's per-node bitset, so k spans the largest id. *)
  let k = 1 + List.fold_left (fun acc (_, m) -> max acc m) (-1) assignment in
  let k = max k 1 in
  (* The serial tracker requires each message at the nodes of its
     origin's G-component, so completion counts exactly those pairs. *)
  let component = Graphs.Bfs.components (Graphs.Dual.reliable dual) in
  let origin_component = Array.make k (-1) in
  let component_size =
    Array.make (1 + Array.fold_left max (-1) component) 0
  in
  Array.iter (fun c -> component_size.(c) <- component_size.(c) + 1) component;
  let required =
    List.fold_left
      (fun acc (node, msg) ->
        let c = component.(node) in
        origin_component.(msg) <- c;
        acc + component_size.(c))
      0 assignment
  in
  let shared = Mega.shared ~part ~k ~component ~origin_component in
  let sims = Array.init partitions (fun _ -> Dsim.Sim.create ()) in
  let boxes = Mailbox.create ~parts:partitions in
  let tracing = trace <> None in
  let pending = Array.init partitions (fun _ -> Queue.create ()) in
  let traces =
    Array.init partitions (fun p ->
        let tr = Dsim.Trace.create ~enabled:false () in
        if tracing then
          Dsim.Trace.subscribe tr (fun e -> Queue.push e pending.(p));
        tr)
  in
  let merge horizon =
    match trace with
    | Some trace -> merge_before ~trace pending horizon
    | None -> ()
  in
  let megas =
    Array.init partitions (fun me ->
        Mega.create ~sim:sims.(me) ~dual
          ?dyn:(Option.map (fun f -> f ()) mk_dyn)
          ~fprog ~shared ~me ~parts:partitions ~seed ~trace:traces.(me)
          ~tracing
          ~send:(fun ~dst entry -> Mailbox.push boxes ~src:me ~dst entry)
          ())
  in
  List.iter
    (fun (node, msg) -> Mega.schedule_arrival megas.(part.(node)) ~node ~msg)
    assignment;
  let next = Array.map Dsim.Sim.next_time sims in
  (* Only windows in which some partition sent anything drain the
     mailboxes, and only destinations that received entries change. *)
  let flush () =
    if Mailbox.pending boxes then
      for dst = 0 to partitions - 1 do
        match Mailbox.drain boxes ~dst with
        | [] -> ()
        | entries ->
            List.iter (Mega.receive_remote megas.(dst)) entries;
            next.(dst) <- Dsim.Sim.next_time sims.(dst)
      done
  in
  let windows = ref 0 in
  let step run_window =
    let rec loop () =
      let tau = ref infinity in
      for p = 0 to partitions - 1 do
        if next.(p) < !tau then tau := next.(p)
      done;
      if !tau < infinity then begin
        let horizon = !tau +. fprog in
        run_window horizon;
        flush ();
        (* Tested here, not only inside [merge], so an untraced window
           does not box [horizon] a second time. *)
        if tracing then merge horizon;
        incr windows;
        loop ()
      end
    in
    loop ()
  in
  (if domains = 1 then
     (* [--domains 1]: same windows, same mailboxes, no domains at all —
        the parallel execution run entirely on the calling domain. *)
     step (run_due ~sims ~next ~domains 0)
   else begin
     let b =
       {
         mutex = Mutex.create ();
         cond = Condition.create ();
         generation = 0;
         until = 0.;
         stop = false;
         running = 0;
       }
     in
     let spawned =
       (* The worker closures deliberately capture [sims] and [next]
          (and, through the megas' callbacks, the partition state and
          [pending] queues).  Worker [w] runs, and writes [next.(p)] and
          [pending.(p)] for, only its own partitions ([p mod domains =
          w]), so no two domains write the same slot; the coordinator
          reads every slot, and writes them in [flush] and [merge], only
          while all workers are parked, and the barrier mutex orders each
          of those phases after the workers' writes. *)
       List.init (domains - 1) (fun i ->
           let w = i + 1 in
           (* analysis: allow R2 *)
           Domain.spawn (fun () ->
               worker_loop b (fun until -> run_due ~sims ~next ~domains w until)))
     in
     Fun.protect
       ~finally:(fun () ->
         Mutex.lock b.mutex;
         b.stop <- true;
         Condition.broadcast b.cond;
         Mutex.unlock b.mutex;
         List.iter Domain.join spawned)
       (fun () ->
         step (fun until ->
             Mutex.lock b.mutex;
             b.until <- until;
             b.generation <- b.generation + 1;
             b.running <- domains - 1;
             Condition.broadcast b.cond;
             Mutex.unlock b.mutex;
             run_due ~sims ~next ~domains 0 until;
             Mutex.lock b.mutex;
             while b.running > 0 do
               Condition.wait b.cond b.mutex
             done;
             Mutex.unlock b.mutex))
   end);
  merge infinity;
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 megas in
  let complete = sum Mega.required_delivered = required && assignment <> [] in
  {
    complete;
    time =
      (if complete then
         Array.fold_left
           (fun acc m -> Float.max acc (Mega.last_required_delivery m))
           0. megas
       else Float.infinity);
    bcasts = sum Mega.bcasts;
    rcvs = sum Mega.rcvs;
    acks = sum Mega.acks;
    deliveries = sum Mega.delivered;
    remote_deliveries = Mailbox.pushed boxes;
    events = Array.fold_left (fun acc s -> acc + Dsim.Sim.executed_events s) 0 sims;
    windows = !windows;
    heap_high_water =
      Array.fold_left (fun acc s -> max acc (Dsim.Sim.heap_high_water s)) 0 sims;
    partitions;
    domains;
    cut_edges = Graphs.Partition.cut_edges gprime ~part;
    part_sizes = Graphs.Partition.sizes part ~parts:partitions;
  }
