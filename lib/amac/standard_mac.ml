exception Not_well_formed of string

(* An instance's status.  An aborted instance's abort time is
   [aborted_at] of its id. *)
let st_open = 0
let st_acked = 1
let st_aborted = 2

(* Per-receiver state of an instance is indexed by the receiver's slot in
   [g'_row], the sender's sorted G'-row: a planned delivery's event
   carries its slot, and a forced one finds it by binary search.  A
   record lives as long as its id: a bcast that takes a released id
   rewrites that id's record, so the fields a bcast sets are mutable,
   and the record keeps its [served] and [pending] buffers, which only
   grow, for the next instance under its id. *)
type 'msg instance = {
  id : int; (* its index in [insts]: what its events carry *)
  mutable uid : int;
  mutable sender : int;
  mutable body : 'msg;
  (* [body] interned, so structurally equal bodies share it; -1 under a
     policy that does not read [fc_has_received]. *)
  mutable body_id : int;
  mutable status : int; (* [st_open], [st_acked] or [st_aborted] *)
  (* The rows of the dual in force when the instance opened.  Terminate
     bookkeeping iterates the same G/G' neighborhoods bcast incremented,
     even if the schedule has since churned the unreliable layer. *)
  mutable g_row : int array;
  mutable g'_row : int array;
  (* By slot, for the first [Array.length g'_row] slots: *)
  mutable served : Bytes.t; (* bit s: g'_row.(s) already received *)
  mutable pending : Dsim.Sim.handle array; (* planned delivery event *)
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
  (* The fields below come last so that those above keep the places the
     event path was measured with: inserting them among those fields
     moved fmmb_grey's events per second by several percent. *)
  (* [| fprog; eps_abort + 1e-9 |]: the cells a watchdog and an ε_abort
     clean-up are posted from. *)
  delays : float array;
  (* By instance id, as long as [insts]: an aborted instance's abort
     time, written only when eps_abort > 0, the only case in which
     [deliver] reads it. *)
  mutable aborted_at : float array;
  (* The policy's contexts, rewritten for every call: the bcast context
     made by the first bcast, which brings a body to fill it with, and
     the forced one, whose columns hold the fire's candidates in
     descending uid order and whose [fc_has_received] asks about
     [fire_receiver]. *)
  mutable bctx : 'msg Mac_intf.bcast_ctx option;
  mutable forced : 'msg Mac_intf.forced_ctx;
  mutable fire_receiver : int;
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

(* Store a new instance under the next unused id: [insts] (and
   [free_ids] and [aborted_at] with it) grows only when the id is one
   past its end. *)
let store t inst =
  let cap = Array.length t.insts in
  if inst.id = cap then begin
    let cap' = if cap = 0 then 16 else 2 * cap in
    let insts = Array.make cap' inst and free_ids = Array.make cap' 0 in
    let aborted_at = Array.make cap' 0. in
    Array.blit t.insts 0 insts 0 cap;
    Array.blit t.free_ids 0 free_ids 0 t.n_free;
    Array.blit t.aborted_at 0 aborted_at 0 cap;
    t.insts <- insts;
    t.free_ids <- free_ids;
    t.aborted_at <- aborted_at
  end;
  t.insts.(inst.id) <- inst

(* The instance of a new bcast over [g'_row], with nothing served and
   nothing pending: the record of the last released id, rewritten, its
   buffers cleared or, when too short for the row, replaced by ones at
   least twice as long; or a new record under the next unused id. *)
let open_instance t ~uid ~sender body ~body_id ~g_row ~g'_row =
  let d = Array.length g'_row in
  let len = (d + 7) / 8 in
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    let inst = t.insts.(t.free_ids.(t.n_free)) in
    inst.uid <- uid;
    inst.sender <- sender;
    inst.body <- body;
    inst.body_id <- body_id;
    inst.status <- st_open;
    inst.g_row <- g_row;
    inst.g'_row <- g'_row;
    if Array.length inst.pending < d then
      inst.pending <-
        Array.make (max d (2 * Array.length inst.pending)) Dsim.Sim.no_event
    else Array.fill inst.pending 0 d Dsim.Sim.no_event;
    if Bytes.length inst.served < len then
      inst.served <- Bytes.make (max len (2 * Bytes.length inst.served)) '\000'
    else Bytes.fill inst.served 0 len '\000';
    inst.ack_handle <- Dsim.Sim.no_event;
    inst
  end
  else begin
    let id = t.n_ids in
    if id > id_mask then
      invalid_arg "Standard_mac: too many broadcast instances alive at once";
    t.n_ids <- id + 1;
    let inst =
      { id; uid; sender; body; body_id; status = st_open; g_row; g'_row;
        served = Bytes.make len '\000';
        pending = Array.make d Dsim.Sim.no_event;
        ack_handle = Dsim.Sim.no_event }
    in
    store t inst;
    inst
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

(* [fc_has_received] under a policy that reads it: the firing
   watchdog's receiver's history. *)
let has_received t body =
  match Hashtbl.find t.bodies body with
  | body_id ->
      Dsim.Int_table.mem t.received (pair t ~body_id t.fire_receiver)
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
  for s = 0 to Array.length inst.g'_row - 1 do
    Dsim.Sim.cancel t.sim inst.pending.(s)
  done

(* Once an instance is unreachable (pending all cancelled, no longer its
   sender's in-flight instance), any bcast may reuse its id and record. *)
let recycle t inst =
  t.free_ids.(t.n_free) <- inst.id;
  t.n_free <- t.n_free + 1

(* The in-flight instance of [sender], which must have one. *)
let current_exn t sender =
  let id = t.current.(sender) in
  if id < 0 then assert false;
  t.insts.(id)

(* --- Progress watchdog ------------------------------------------------- *)

let recheck_watchdog t j =
  let needed = t.connected_open.(j) > 0 && t.cover.(j) = 0 in
  let armed = t.watchdog.(j) <> Dsim.Sim.no_event in
  if needed && not armed then
    t.watchdog.(j) <-
      Dsim.Sim.post t.sim ~delays:t.delays ~at:0 t.events.(ev_watchdog) j
  else if armed && not needed then begin
    Dsim.Sim.cancel t.sim t.watchdog.(j);
    t.watchdog.(j) <- Dsim.Sim.no_event
  end

(* --- Deliveries --------------------------------------------------------- *)

let deliver t inst s =
  let deliverable =
    (not (is_served inst s))
    && (inst.status = st_open
       (* Late deliveries of an aborted instance are allowed within the
          model's eps_abort window. *)
       || inst.status = st_aborted
          && Dsim.Sim.now t.sim
             <= t.aborted_at.(inst.id) +. t.eps_abort +. 1e-12)
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
    if inst.status = st_open then begin
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

(* Receiver [j]'s candidates, and their number: every open instance
   whose pinned G'-row holds [j] and that has not served it.  An open
   instance is its sender's in-flight one, and its row is its sender's
   row in some epoch's G', a subset of the base dual's, so scanning j's
   G'-neighbours in [t.dual] finds them all.  They are sorted into
   [scratch_cand] by ascending uid and written from there into the
   forced context's columns backwards, so position p holds
   [scratch_cand.(found - 1 - p)] and the columns are in descending uid
   order; the order feeds the forced-choice policy, so it is
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
  let found = !found in
  let fc = t.forced in
  if found > Array.length fc.Mac_intf.fc_bodies then begin
    let cap = max found (2 * Array.length fc.Mac_intf.fc_bodies) in
    fc.Mac_intf.fc_bodies <-
      Array.make cap t.insts.(t.scratch_cand.(0)).body;
    fc.Mac_intf.fc_is_g_neighbor <- Array.make cap false
  end;
  for k = 0 to found - 1 do
    let inst = t.insts.(t.scratch_cand.(k)) in
    let p = found - 1 - k in
    fc.Mac_intf.fc_bodies.(p) <- inst.body;
    fc.Mac_intf.fc_is_g_neighbor.(p) <-
      Graphs.Dual.is_reliable t.dual inst.sender j
  done;
  fc.Mac_intf.fc_count <- found;
  found

let fire_watchdog t j =
  t.watchdog.(j) <- Dsim.Sim.no_event;
  if t.connected_open.(j) > 0 && t.cover.(j) = 0 then begin
    let found = candidates t j in
    (* Never 0: connected_open > 0 with cover = 0 implies an open,
       undelivered G-neighbor instance, which is a candidate. *)
    if found = 0 then assert false;
    t.fire_receiver <- j;
    let p = t.policy.Mac_intf.pol_forced t.forced in
    if p < 0 || p >= found then
      invalid_arg "Standard_mac: forced choice not among candidates";
    (* The chosen instance is read before the delivery, whose handler
       may start a bcast. *)
    let inst = t.insts.(t.scratch_cand.(found - 1 - p)) in
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
  inst.status <- st_acked;
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
  inst.status <- st_aborted;
  if t.eps_abort > 0. then t.aborted_at.(inst.id) <- Dsim.Sim.now t.sim;
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
      (Dsim.Sim.post t.sim ~delays:t.delays ~at:1 t.events.(ev_abort_gc)
         inst.id)

(* A forced context with empty columns. *)
let forced_ctx ~rng has_received =
  {
    Mac_intf.fc_count = 0;
    fc_bodies = [||];
    fc_is_g_neighbor = [||];
    fc_has_received = has_received;
    fc_rng = rng;
  }

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
      delays = [| fprog; eps_abort +. 1e-9 |];
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
      aborted_at = [||];
      events = [||];
      next_uid = 0;
      connected_open = Array.make n 0;
      cover = Array.make n 0;
      watchdog = Array.make n Dsim.Sim.no_event;
      scratch_cand = Array.make n 0;
      bctx = None;
      forced = forced_ctx ~rng no_history;
      fire_receiver = -1;
      bodies = Hashtbl.create 16;
      received = Dsim.Int_table.create_set ();
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
  if policy.Mac_intf.pol_reads_received then
    t.forced <- forced_ctx ~rng (has_received t);
  t

(* --- Plan validation ---------------------------------------------------- *)

(* Also leaves, in [scratch_slot], each G'-neighbor's slot in [g'_row]
   for [bcast] to schedule the plan's deliveries with. *)
let validate_plan t ~g_row ~g'_row (plan : Mac_intf.plan) =
  let ack_delay = plan.Mac_intf.ack.(0) in
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
    let receiver = plan.Mac_intf.receivers.(i) in
    let delay = plan.Mac_intf.delays.(i) in
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
    match t.bctx with
    | Some ctx ->
        ctx.Mac_intf.bc_sender <- node;
        ctx.Mac_intf.bc_body <- body;
        ctx.Mac_intf.bc_g_neighbors <- g_row;
        ctx.Mac_intf.bc_g'_only_neighbors <- g'_only;
        ctx
    | None ->
        let ctx =
          {
            Mac_intf.bc_sender = node;
            bc_body = body;
            bc_g_neighbors = g_row;
            bc_g'_only_neighbors = g'_only;
            bc_fack = t.fack;
            bc_fprog = t.fprog;
            bc_rng = t.rng;
            bc_plan = t.plan;
          }
        in
        t.bctx <- Some ctx;
        ctx
  in
  Mac_intf.reset t.plan;
  t.policy.Mac_intf.pol_plan ctx;
  let plan = t.plan in
  validate_plan t ~g_row ~g'_row plan;
  let body_id =
    if t.policy.Mac_intf.pol_reads_received then intern t body else -1
  in
  let inst = open_instance t ~uid ~sender:node body ~body_id ~g_row ~g'_row in
  let id = inst.id and pending = inst.pending in
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
    let s = t.scratch_slot.(plan.Mac_intf.receivers.(i)) in
    pending.(s) <-
      Dsim.Sim.post t.sim ~delays:plan.Mac_intf.delays ~at:i
        t.events.(ev_deliver) ((s lsl id_bits) lor id)
  done;
  inst.ack_handle <-
    Dsim.Sim.post t.sim ~delays:plan.Mac_intf.ack ~at:0 t.events.(ev_ack) id
