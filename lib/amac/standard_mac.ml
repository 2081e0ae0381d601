exception Not_well_formed of string

type status = Open | Acked | Aborted of float

(* [Aborted] carries a payload, so [status] is not immediate; compare it
   by shape, never with polymorphic (=). *)
let is_open = function Open -> true | Acked | Aborted _ -> false

(* Per-receiver state of an instance is indexed by the receiver's slot in
   [g'_row], the sender's sorted G'-row: a planned delivery's event
   carries its slot, and a forced one finds it by binary search. *)
type 'msg instance = {
  id : int; (* its index in [insts]: what its events carry *)
  uid : int;
  sender : int;
  body : 'msg;
  (* [body] interned, so structurally equal bodies share it; -1 under a
     policy that does not read [fc_has_received]. *)
  body_id : int;
  mutable status : status;
  (* The rows of the dual in force when the instance opened.  Terminate
     bookkeeping iterates the same G/G' neighborhoods bcast incremented,
     even if the schedule has since churned the unreliable layer. *)
  g_row : int array;
  g'_row : int array;
  served : Bytes.t; (* bit s: g'_row.(s) already received *)
  pending : Dsim.Sim.handle array; (* by slot: planned delivery event *)
  mutable ack_handle : Dsim.Sim.handle;
}

type 'msg t = {
  sim : Dsim.Sim.t;
  dual : Graphs.Dual.t; (* the base (union) dual; epoch-invariant queries *)
  dyn : Dyn.Dual.t option; (* time-varying G' schedule, consulted per bcast *)
  fack : float;
  fprog : float;
  eps_abort : float;
  policy : 'msg Mac_intf.policy;
  rng : Dsim.Rng.t;
  trace : Dsim.Trace.t option;
  msg_id : ('msg -> int) option; (* payload id for trace msg fields *)
  handlers : 'msg Mac_intf.handlers option array;
  busy : bool array;
  current : int array; (* in-flight instance id per node, or -1 *)
  (* Instances by id.  A bcast takes an id, released ids first, and the
     id is released when the instance is recycled, once no event of it
     is queued; so ids stay below the most instances alive at once, and
     [free_ids], as long as [insts], never overflows. *)
  mutable insts : 'msg instance array;
  mutable n_ids : int; (* ids ever taken *)
  mutable free_ids : int array;
  mutable n_free : int;
  (* [| deliver; ack; watchdog; abort_gc |], registered right after the
     record is built, since their functions close over it.  A delivery's
     int packs the receiver's slot above the instance id ([id_bits]);
     an ack's and a clean-up's is the instance id, a watchdog's the
     receiver. *)
  mutable events : Dsim.Sim.handler array;
  mutable next_uid : int;
  (* Per-receiver progress-watchdog state. *)
  connected_open : int array; (* open instances from G-neighbors *)
  cover : int array; (* open G'-instances that already delivered here *)
  watchdog : Dsim.Sim.handle array; (* armed watchdog, or [no_event] *)
  (* A fire's candidates, as instance ids in ascending uid order. *)
  scratch_cand : int array;
  (* Bodies by structural equality, interned once per bcast to dense ids,
     and every delivered (body id, receiver) pair, keyed [pair]: all
     [fc_has_received] needs.  Both stay empty unless the policy sets
     [pol_reads_received]. *)
  bodies : ('msg, int) Hashtbl.t;
  received : Dsim.Int_table.set Dsim.Int_table.t;
  (* Per sender, the [served]/[pending] buffers of its last discarded
     instance, taken (and cleared) by its next bcast over a row of the
     same length, so steady-state bcasts allocate none. *)
  spare_served : Bytes.t array;
  spare_pending : Dsim.Sim.handle array array;
  (* The policy's plan buffer, reset before every [pol_plan] call. *)
  plan : Mac_intf.plan;
  (* Epoch-stamped scratch for [validate_plan]: a slot is "marked" iff it
     holds the current epoch, so clearing between broadcasts is one
     integer bump instead of a fresh table per plan. *)
  mutable scratch_epoch : int;
  scratch_nbr : int array; (* marked = G'-neighbor of this plan's sender *)
  scratch_slot : int array; (* for a marked node: its slot in the G'-row *)
  scratch_seen : int array; (* marked = receiver already in this plan *)
  mutable n_bcast : int;
  mutable n_rcv : int;
  mutable n_ack : int;
  mutable n_abort : int;
  mutable n_forced : int;
}

let id_bits = 30
let id_mask = (1 lsl id_bits) - 1

(* Indices into [events]. *)
let ev_deliver = 0
let ev_ack = 1
let ev_watchdog = 2
let ev_abort_gc = 3

let record t event =
  match t.trace with
  | None -> ()
  | Some tr -> Dsim.Trace.record tr ~time:(Dsim.Sim.now t.sim) event

(* Call-site guard for [record]: OCaml evaluates arguments eagerly, so
   an unguarded call allocates the event record even with tracing off —
   on the deliver path that is an allocation per event. *)
let tracing t = Option.is_some t.trace

(* The trace [msg] field: the MMB payload id when a projection was given
   (so span derivation can link arrivals to broadcasts), else the uid. *)
let mid t ~uid body =
  match t.msg_id with Some f -> f body | None -> uid

let attach t ~node handlers =
  (match t.handlers.(node) with
  | Some _ -> invalid_arg "Standard_mac.attach: node already attached"
  | None -> ());
  t.handlers.(node) <- Some handlers

let handlers_exn t node =
  match t.handlers.(node) with
  | Some h -> h
  | None ->
      raise
        (Not_well_formed (Printf.sprintf "node %d has no attached automaton" node))

let busy t ~node = t.busy.(node)
let sim t = t.sim

(* Environment-event injection: the sanctioned way for code above the MAC
   (problem harnesses, arrival schedules) to put work on the engine's
   timeline without reaching into Dsim.Sim directly (check A4). *)
let env_at t ~time f = ignore (Dsim.Sim.schedule_at t.sim ~time f)
let dual t = t.dual
let dyn t = t.dyn
let trace t = t.trace
let fack t = t.fack
let fprog t = t.fprog
let bcast_count t = t.n_bcast
let rcv_count t = t.n_rcv
let ack_count t = t.n_ack
let abort_count t = t.n_abort
let forced_count t = t.n_forced

(* --- Instances, by id ---------------------------------------------------- *)

(* Store a new instance under its id, which is either released or the
   next unused one: [insts] (and [free_ids] with it) grows only when the
   id is one past its end. *)
let store t inst =
  let cap = Array.length t.insts in
  if inst.id = cap then begin
    let cap' = if cap = 0 then 16 else 2 * cap in
    let insts = Array.make cap' inst and free_ids = Array.make cap' 0 in
    Array.blit t.insts 0 insts 0 cap;
    Array.blit t.free_ids 0 free_ids 0 t.n_free;
    t.insts <- insts;
    t.free_ids <- free_ids
  end;
  t.insts.(inst.id) <- inst

let take_id t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free_ids.(t.n_free)
  end
  else begin
    let id = t.n_ids in
    if id > id_mask then
      invalid_arg "Standard_mac: too many broadcast instances alive at once";
    t.n_ids <- id + 1;
    id
  end

(* The id of [body], interned on first sight.  [Hashtbl.find] rather
   than [find_opt]: a hit allocates nothing. *)
let intern t body =
  match Hashtbl.find t.bodies body with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length t.bodies in
      Hashtbl.replace t.bodies body id;
      id

(* The [received] key of (body id, receiver). *)
let pair t ~body_id j = (body_id * Array.length t.busy) + j

let has_received t j body =
  match Hashtbl.find t.bodies body with
  | body_id -> Dsim.Int_table.mem t.received (pair t ~body_id j)
  | exception Not_found -> false

(* [fc_has_received] under a policy that did not declare it reads it:
   with no history kept, answering [false] would be a silent lie. *)
let no_history _ =
  invalid_arg
    "Standard_mac: fc_has_received called by a policy that does not set \
     pol_reads_received"

(* --- Per-instance receiver state ----------------------------------------- *)

let is_served inst s =
  Char.code (Bytes.get inst.served (s lsr 3)) land (1 lsl (s land 7)) <> 0

let mark_served inst s =
  let b = s lsr 3 in
  Bytes.set inst.served b
    (Char.chr (Char.code (Bytes.get inst.served b) lor (1 lsl (s land 7))))

(* The slot of receiver [j] in the instance's G'-row (j must be there). *)
let slot_of inst j =
  let row = inst.g'_row in
  let lo = ref 0 and hi = ref (Array.length row) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if row.(mid) < j then lo := mid + 1 else hi := mid
  done;
  !lo

let cancel_pending t inst =
  for s = 0 to Array.length inst.pending - 1 do
    Dsim.Sim.cancel t.sim inst.pending.(s)
  done

(* Once an instance is unreachable (pending all cancelled, no longer its
   sender's in-flight instance), its sender's next bcast may reuse its
   buffers, and any bcast its id. *)
let recycle t inst =
  t.spare_served.(inst.sender) <- inst.served;
  t.spare_pending.(inst.sender) <- inst.pending;
  t.free_ids.(t.n_free) <- inst.id;
  t.n_free <- t.n_free + 1

(* The in-flight instance of [sender], which must have one. *)
let current_exn t sender =
  let id = t.current.(sender) in
  if id < 0 then assert false;
  t.insts.(id)

(* --- Progress watchdog ------------------------------------------------- *)

(* The sender of the candidate with [uid], or -1. *)
let rec sender_of uid = function
  | [] -> -1
  | c :: rest ->
      if c.Mac_intf.cand_uid = uid then c.Mac_intf.cand_sender
      else sender_of uid rest

let recheck_watchdog t j =
  let needed = t.connected_open.(j) > 0 && t.cover.(j) = 0 in
  let armed = t.watchdog.(j) <> Dsim.Sim.no_event in
  if needed && not armed then
    t.watchdog.(j) <-
      Dsim.Sim.post t.sim ~delay:t.fprog t.events.(ev_watchdog) j
  else if armed && not needed then begin
    Dsim.Sim.cancel t.sim t.watchdog.(j);
    t.watchdog.(j) <- Dsim.Sim.no_event
  end

(* --- Deliveries --------------------------------------------------------- *)

let deliver t inst s =
  let deliverable =
    (not (is_served inst s))
    &&
    match inst.status with
    | Open -> true
    | Acked -> false
    | Aborted at ->
        (* Late deliveries of an aborted instance are allowed within the
           model's eps_abort window. *)
        Dsim.Sim.now t.sim <= at +. t.eps_abort +. 1e-12
  in
  if deliverable then begin
    let j = inst.g'_row.(s) in
    (* A forced delivery cancels the still-scheduled planned one; when the
       planned event itself is firing, its handle is already dead and the
       cancel is a no-op. *)
    Dsim.Sim.cancel t.sim inst.pending.(s);
    mark_served inst s;
    (* Progress-cover bookkeeping only concerns open instances: a
       terminated one has already left [cover]. *)
    if is_open inst.status then begin
      t.cover.(j) <- t.cover.(j) + 1;
      recheck_watchdog t j
    end;
    if inst.body_id >= 0 then
      Dsim.Int_table.add t.received (pair t ~body_id:inst.body_id j);
    t.n_rcv <- t.n_rcv + 1;
    (* Delivered-set probe for the adversary's oracle: the receiver now
       knows this message. *)
    (match t.dyn with
    | None -> ()
    | Some dy ->
        Dyn.Dual.note_delivery dy ~node:j ~msg:(mid t ~uid:inst.uid inst.body));
    if tracing t then
      record t
        (Dsim.Trace.Rcv
           { node = j; msg = mid t ~uid:inst.uid inst.body; instance = inst.uid });
    (handlers_exn t j).Mac_intf.on_rcv ~src:inst.sender inst.body
  end

(* Receiver [j]'s candidates: every open instance whose pinned G'-row
   holds [j] and that has not served it.  An open instance is its
   sender's in-flight one, and its row is its sender's row in some
   epoch's G', a subset of the base dual's, so scanning j's G'-neighbours
   in [t.dual] finds them all.  They are sorted into [scratch_cand] by
   ascending uid and consed from there, so the list is in descending
   uid order; the order feeds the forced-choice policy, so it is
   load-bearing. *)
let candidates t j =
  let nbrs = Graphs.Graph.neighbors (Graphs.Dual.unreliable t.dual) j in
  let found = ref 0 in
  for i = 0 to Array.length nbrs - 1 do
    let id = t.current.(nbrs.(i)) in
    if id >= 0 then begin
      let inst = t.insts.(id) in
      let s = slot_of inst j in
      if
        s < Array.length inst.g'_row
        && inst.g'_row.(s) = j
        && not (is_served inst s)
      then begin
        let k = ref !found in
        while !k > 0 && t.insts.(t.scratch_cand.(!k - 1)).uid > inst.uid do
          t.scratch_cand.(!k) <- t.scratch_cand.(!k - 1);
          decr k
        done;
        t.scratch_cand.(!k) <- id;
        incr found
      end
    end
  done;
  let acc = ref [] in
  for k = 0 to !found - 1 do
    let inst = t.insts.(t.scratch_cand.(k)) in
    acc :=
      {
        Mac_intf.cand_uid = inst.uid;
        cand_sender = inst.sender;
        cand_body = inst.body;
        cand_is_g_neighbor = Graphs.Dual.is_reliable t.dual inst.sender j;
      }
      :: !acc
  done;
  !acc

let fire_watchdog t j =
  t.watchdog.(j) <- Dsim.Sim.no_event;
  if t.connected_open.(j) > 0 && t.cover.(j) = 0 then begin
    let candidates = candidates t j in
    match candidates with
    | [] ->
        (* Cannot happen: connected_open > 0 with cover = 0 implies an open,
           undelivered G-neighbor instance, which is a candidate. *)
        assert false
    | _ ->
        let ctx =
          {
            Mac_intf.fc_receiver = j;
            fc_now = Dsim.Sim.now t.sim;
            fc_candidates = candidates;
            fc_has_received =
              (if t.policy.Mac_intf.pol_reads_received then
                 fun body -> has_received t j body
               else no_history);
            fc_rng = t.rng;
          }
        in
        let choice = t.policy.Mac_intf.pol_forced ctx in
        let sender = sender_of choice.Mac_intf.cand_uid candidates in
        if sender < 0 then
          invalid_arg "Standard_mac: forced choice not among candidates";
        let inst = current_exn t sender in
        t.n_forced <- t.n_forced + 1;
        deliver t inst (slot_of inst j)
  end

(* Shared bookkeeping for both terminating events: update watchdog state
   and free the sender.  [keep_late_deliveries] preserves pending delivery
   events that fall inside the eps_abort window. *)
let terminate t inst ~keep_late_deliveries =
  Dsim.Sim.cancel t.sim inst.ack_handle;
  if not keep_late_deliveries then cancel_pending t inst;
  let g_row = inst.g_row and g'_row = inst.g'_row in
  for i = 0 to Array.length g_row - 1 do
    let j = g_row.(i) in
    t.connected_open.(j) <- t.connected_open.(j) - 1;
    recheck_watchdog t j
  done;
  for s = 0 to Array.length g'_row - 1 do
    let j = g'_row.(s) in
    if is_served inst s then t.cover.(j) <- t.cover.(j) - 1;
    recheck_watchdog t j
  done;
  t.busy.(inst.sender) <- false;
  t.current.(inst.sender) <- -1;
  if not keep_late_deliveries then recycle t inst

let ack t inst =
  inst.status <- Acked;
  terminate t inst ~keep_late_deliveries:false;
  t.n_ack <- t.n_ack + 1;
  if tracing t then
    record t
      (Dsim.Trace.Ack
         {
           node = inst.sender;
           msg = mid t ~uid:inst.uid inst.body;
           instance = inst.uid;
         });
  (handlers_exn t inst.sender).Mac_intf.on_ack inst.body

let abort t ~node =
  if t.current.(node) < 0 then
    raise
      (Not_well_formed
         (Printf.sprintf "node %d aborted with no broadcast in flight" node));
  let inst = current_exn t node in
  inst.status <- Aborted (Dsim.Sim.now t.sim);
  (* With eps_abort = 0, [terminate ~keep_late_deliveries:false]
     cancels every pending delivery; with eps_abort > 0 they are
     kept and [deliver] applies the window cutoff at fire time. *)
  terminate t inst ~keep_late_deliveries:(t.eps_abort > 0.);
  t.n_abort <- t.n_abort + 1;
  if tracing t then
    record t
      (Dsim.Trace.Abort
         { node; msg = mid t ~uid:inst.uid inst.body; instance = inst.uid });
  if t.eps_abort > 0. then
    (* Drop the instance once the late window has passed. *)
    ignore
      (Dsim.Sim.post t.sim ~delay:(t.eps_abort +. 1e-9) t.events.(ev_abort_gc)
         inst.id)

let create ~sim ~dual ~fack ~fprog ~policy ~rng ?(eps_abort = 0.) ?dyn ?trace
    ?msg_id () =
  if not (0. < fprog && fprog <= fack) then
    invalid_arg "Standard_mac.create: need 0 < fprog <= fack";
  if eps_abort < 0. then
    invalid_arg "Standard_mac.create: need eps_abort >= 0";
  let n = Graphs.Dual.n dual in
  (match dyn with
  | Some d when Graphs.Dual.n (Dyn.Dual.base d) <> n ->
      invalid_arg "Standard_mac.create: dyn schedule is over a different node set"
  | _ -> ());
  let t =
    {
      sim;
      dual;
      dyn;
      fack;
      fprog;
      eps_abort;
      policy;
      rng;
      trace;
      msg_id;
      handlers = Array.make n None;
      busy = Array.make n false;
      current = Array.make n (-1);
      insts = [||];
      n_ids = 0;
      free_ids = [||];
      n_free = 0;
      events = [||];
      next_uid = 0;
      connected_open = Array.make n 0;
      cover = Array.make n 0;
      watchdog = Array.make n Dsim.Sim.no_event;
      scratch_cand = Array.make n 0;
      bodies = Hashtbl.create 16;
      received = Dsim.Int_table.create_set ();
      spare_served = Array.make n Bytes.empty;
      spare_pending = Array.make n [||];
      plan = Mac_intf.create_plan ();
      scratch_epoch = 0;
      scratch_nbr = Array.make n 0;
      scratch_slot = Array.make n 0;
      scratch_seen = Array.make n 0;
      n_bcast = 0;
      n_rcv = 0;
      n_ack = 0;
      n_abort = 0;
      n_forced = 0;
    }
  in
  t.events <-
    [|
      Dsim.Sim.register ~cat:"mac.deliver" sim (fun arg ->
          deliver t t.insts.(arg land id_mask) (arg lsr id_bits));
      Dsim.Sim.register ~cat:"mac.ack" sim (fun id -> ack t t.insts.(id));
      Dsim.Sim.register ~cat:"mac.watchdog" sim (fun j -> fire_watchdog t j);
      Dsim.Sim.register ~cat:"mac.abort_gc" sim (fun id ->
          let inst = t.insts.(id) in
          cancel_pending t inst;
          recycle t inst);
    |];
  t

(* --- Plan validation ---------------------------------------------------- *)

(* Also leaves, in [scratch_slot], each G'-neighbor's slot in [g'_row]
   for [bcast] to schedule the plan's deliveries with. *)
let validate_plan t ~g_row ~g'_row (plan : Mac_intf.plan) =
  let ack_delay = plan.Mac_intf.ack_delay in
  if not (0. <= ack_delay && ack_delay <= t.fack) then
    invalid_arg
      (Printf.sprintf "Standard_mac: plan ack_delay %g outside [0, %g]"
         ack_delay t.fack);
  let n = Graphs.Dual.n t.dual in
  t.scratch_epoch <- t.scratch_epoch + 1;
  let epoch = t.scratch_epoch in
  for s = 0 to Array.length g'_row - 1 do
    let j = g'_row.(s) in
    t.scratch_nbr.(j) <- epoch;
    t.scratch_slot.(j) <- s
  done;
  for i = 0 to plan.Mac_intf.len - 1 do
    let { Mac_intf.receiver; delay } = plan.Mac_intf.cells.(i) in
    if receiver < 0 || receiver >= n then
      invalid_arg "Standard_mac: plan delivers to a non-G'-neighbor";
    if t.scratch_seen.(receiver) = epoch then
      invalid_arg "Standard_mac: plan delivers twice to one receiver";
    t.scratch_seen.(receiver) <- epoch;
    if t.scratch_nbr.(receiver) <> epoch then
      invalid_arg "Standard_mac: plan delivers to a non-G'-neighbor";
    if not (0. <= delay && delay <= ack_delay) then
      invalid_arg "Standard_mac: plan delivery delay outside [0, ack_delay]"
  done;
  for i = 0 to Array.length g_row - 1 do
    if t.scratch_seen.(g_row.(i)) <> epoch then
      invalid_arg "Standard_mac: plan misses a G-neighbor"
  done

(* --- Broadcast ---------------------------------------------------------- *)

let bcast t ~node body =
  ignore (handlers_exn t node);
  if t.busy.(node) then
    raise
      (Not_well_formed
         (Printf.sprintf "node %d broadcast before previous ack" node));
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  t.busy.(node) <- true;
  t.n_bcast <- t.n_bcast + 1;
  (* Delivery-plan-time consult of the schedule: note the probe and step
     to the epoch in force now, BEFORE the Bcast event is recorded, so
     trace subscribers (the monitor) observing at Bcast time see the
     epoch-current adjacency through the read-only Dyn.Dual.current. *)
  let dual =
    match t.dyn with
    | None -> t.dual
    | Some dy ->
        Dyn.Dual.note_bcast dy ~node ~msg:(mid t ~uid body);
        Dyn.Dual.view dy ~time:(Dsim.Sim.now t.sim)
  in
  if tracing t then
    record t (Dsim.Trace.Bcast { node; msg = mid t ~uid body; instance = uid });
  let g_row = Graphs.Graph.neighbors (Graphs.Dual.reliable dual) node in
  let g'_row = Graphs.Graph.neighbors (Graphs.Dual.unreliable dual) node in
  (* Precomputed at Dual construction; same ascending order the
     per-broadcast filter used to produce. *)
  let g'_only = Graphs.Dual.g'_only_neighbors dual node in
  let ctx =
    {
      Mac_intf.bc_sender = node;
      bc_uid = uid;
      bc_body = body;
      bc_now = Dsim.Sim.now t.sim;
      bc_g_neighbors = g_row;
      bc_g'_only_neighbors = g'_only;
      bc_fack = t.fack;
      bc_fprog = t.fprog;
      bc_rng = t.rng;
      bc_plan = t.plan;
    }
  in
  Mac_intf.reset t.plan;
  t.policy.Mac_intf.pol_plan ctx;
  let plan = t.plan in
  validate_plan t ~g_row ~g'_row plan;
  let d = Array.length g'_row in
  let pending =
    let p = t.spare_pending.(node) in
    if Array.length p = d then begin
      t.spare_pending.(node) <- [||];
      Array.fill p 0 d Dsim.Sim.no_event;
      p
    end
    else Array.make d Dsim.Sim.no_event
  in
  let served =
    let b = t.spare_served.(node) and len = (d + 7) / 8 in
    if Bytes.length b = len then begin
      t.spare_served.(node) <- Bytes.empty;
      Bytes.fill b 0 len '\000';
      b
    end
    else Bytes.make len '\000'
  in
  let id = take_id t in
  let inst =
    { id; uid; sender = node; body;
      body_id =
        (if t.policy.Mac_intf.pol_reads_received then intern t body else -1);
      status = Open; g_row; g'_row; served; pending;
      ack_handle = Dsim.Sim.no_event }
  in
  store t inst;
  t.current.(node) <- id;
  for i = 0 to Array.length g_row - 1 do
    let j = g_row.(i) in
    t.connected_open.(j) <- t.connected_open.(j) + 1;
    recheck_watchdog t j
  done;
  (* Deliveries are scheduled before the ack so that equal-timestamp
     deliveries execute first (the heap is FIFO-stable), preserving
     ack correctness. *)
  for i = 0 to plan.Mac_intf.len - 1 do
    let { Mac_intf.receiver; delay } = plan.Mac_intf.cells.(i) in
    let s = t.scratch_slot.(receiver) in
    pending.(s) <-
      Dsim.Sim.post t.sim ~delay t.events.(ev_deliver) ((s lsl id_bits) lor id)
  done;
  inst.ack_handle <-
    Dsim.Sim.post t.sim ~delay:plan.Mac_intf.ack_delay t.events.(ev_ack) id
