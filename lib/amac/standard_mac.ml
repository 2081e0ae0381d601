exception Not_well_formed of string

(* Per-receiver contender set: the open, not-yet-delivered-here
   instances from G'-neighbors, as (uid, sender) pairs sorted by uid and
   interleaved in one int array.  Uids are minted in increasing order, so
   [add] is almost always an append, and traversal is ascending with no
   snapshot, sort, or allocation — deterministic by construction.  The
   sender leads to the instance itself, through [current]. *)
module Contenders = struct
  type t = { mutable a : int array; mutable len : int (* pairs *) }

  let create () = { a = [||]; len = 0 }

  (* Pair index of [uid] in the sorted prefix, or its insertion point. *)
  let search s uid =
    let lo = ref 0 and hi = ref s.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if s.a.(2 * mid) < uid then lo := mid + 1 else hi := mid
    done;
    !lo

  let add s ~uid ~sender =
    let cap = Array.length s.a in
    if 2 * s.len = cap then begin
      let a = Array.make (if cap = 0 then 8 else 2 * cap) 0 in
      Array.blit s.a 0 a 0 cap;
      s.a <- a
    end;
    let i =
      if s.len = 0 || uid > s.a.(2 * (s.len - 1)) then s.len else search s uid
    in
    if i = s.len || s.a.(2 * i) <> uid then begin
      Array.blit s.a (2 * i) s.a ((2 * i) + 2) (2 * (s.len - i));
      s.a.(2 * i) <- uid;
      s.a.((2 * i) + 1) <- sender;
      s.len <- s.len + 1
    end

  let remove s uid =
    let i = search s uid in
    if i < s.len && s.a.(2 * i) = uid then begin
      Array.blit s.a ((2 * i) + 2) s.a (2 * i) (2 * (s.len - i - 1));
      s.len <- s.len - 1
    end

  (* Fold smallest-uid-first. *)
  let fold_asc f s init =
    let acc = ref init in
    for i = 0 to s.len - 1 do
      acc := f ~uid:s.a.(2 * i) ~sender:s.a.((2 * i) + 1) !acc
    done;
    !acc
end

type status = Open | Acked | Aborted of float

(* [Aborted] carries a payload, so [status] is not immediate; compare it
   by shape, never with polymorphic (=). *)
let is_open = function Open -> true | Acked | Aborted _ -> false

(* Per-receiver state of an instance is indexed by the receiver's slot in
   [g'_row], the sender's sorted G'-row: a planned delivery's event
   carries its slot, and a forced one finds it by binary search. *)
type 'msg instance = {
  uid : int;
  sender : int;
  body : 'msg;
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
  current : 'msg instance option array; (* in-flight instance per node *)
  mutable next_uid : int;
  (* Per-receiver progress-watchdog state. *)
  connected_open : int array; (* open instances from G-neighbors *)
  cover : int array; (* open G'-instances that already delivered here *)
  contenders : Contenders.t array;
  watchdog : Dsim.Sim.handle array; (* armed watchdog, or [no_event] *)
  (* One watchdog callback per node, allocated on first use and reused for
     every rescheduling (watchdogs churn on each delivery/termination). *)
  watchdog_fn : (unit -> unit) option array;
  (* Likewise one [fc_has_received] probe per node, reused across every
     watchdog fire at that node. *)
  has_received_fn : ('msg -> bool) option array;
  received_bodies : ('msg, unit) Hashtbl.t array;
  (* Per sender, the [served]/[pending] buffers of its last discarded
     instance, taken (and cleared) by its next bcast over a row of the
     same length, so steady-state bcasts allocate none. *)
  spare_served : Bytes.t array;
  spare_pending : Dsim.Sim.handle array array;
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
    current = Array.make n None;
    next_uid = 0;
    connected_open = Array.make n 0;
    cover = Array.make n 0;
    contenders = Array.init n (fun _ -> Contenders.create ());
    watchdog = Array.make n Dsim.Sim.no_event;
    watchdog_fn = Array.make n None;
    has_received_fn = Array.make n None;
    received_bodies = Array.init n (fun _ -> Hashtbl.create 16);
    spare_served = Array.make n Bytes.empty;
    spare_pending = Array.make n [||];
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

(* Once an instance is unreachable (pending all cancelled, contend sets
   purged), its sender's next bcast may reuse its buffers. *)
let recycle t inst =
  t.spare_served.(inst.sender) <- inst.served;
  t.spare_pending.(inst.sender) <- inst.pending

(* --- Progress watchdog ------------------------------------------------- *)

(* The sender of the candidate with [uid], or -1. *)
let rec sender_of uid = function
  | [] -> -1
  | c :: rest ->
      if c.Mac_intf.cand_uid = uid then c.Mac_intf.cand_sender
      else sender_of uid rest

let rec recheck_watchdog t j =
  let needed = t.connected_open.(j) > 0 && t.cover.(j) = 0 in
  let armed = t.watchdog.(j) <> Dsim.Sim.no_event in
  if needed && not armed then begin
    let fn =
      match t.watchdog_fn.(j) with
      | Some fn -> fn
      | None ->
          let fn () = fire_watchdog t j in
          t.watchdog_fn.(j) <- Some fn;
          fn
    in
    t.watchdog.(j) <-
      Dsim.Sim.schedule ~cat:"mac.watchdog" t.sim ~delay:t.fprog fn
  end
  else if armed && not needed then begin
    Dsim.Sim.cancel t.sim t.watchdog.(j);
    t.watchdog.(j) <- Dsim.Sim.no_event
  end

and fire_watchdog t j =
  t.watchdog.(j) <- Dsim.Sim.no_event;
  if t.connected_open.(j) > 0 && t.cover.(j) = 0 then begin
    (* Ascending-uid traversal with a cons per candidate gives a
       descending-uid list; the order feeds the forced-choice policy, so
       it is load-bearing.  A contender is open, so it is its sender's
       current instance. *)
    let candidates =
      Contenders.fold_asc
        (fun ~uid ~sender acc ->
          match t.current.(sender) with
          | Some inst when inst.uid = uid ->
              {
                Mac_intf.cand_uid = uid;
                cand_sender = sender;
                cand_body = inst.body;
                cand_is_g_neighbor = Graphs.Dual.is_reliable t.dual sender j;
              }
              :: acc
          | Some _ | None -> assert false)
        t.contenders.(j) []
    in
    match candidates with
    | [] ->
        (* Cannot happen: connected_open > 0 with cover = 0 implies an open,
           undelivered G-neighbor instance, which is a contender. *)
        assert false
    | _ -> (
        let has_received =
          match t.has_received_fn.(j) with
          | Some fn -> fn
          | None ->
              let fn body = Hashtbl.mem t.received_bodies.(j) body in
              t.has_received_fn.(j) <- Some fn;
              fn
        in
        let ctx =
          {
            Mac_intf.fc_receiver = j;
            fc_now = Dsim.Sim.now t.sim;
            fc_candidates = candidates;
            fc_has_received = has_received;
            fc_rng = t.rng;
          }
        in
        let choice = t.policy.Mac_intf.pol_forced ctx in
        let sender = sender_of choice.Mac_intf.cand_uid candidates in
        if sender < 0 then
          invalid_arg "Standard_mac: forced choice not among candidates";
        match t.current.(sender) with
        | Some inst ->
            t.n_forced <- t.n_forced + 1;
            deliver t inst (slot_of inst j)
        | None -> assert false)
  end

(* --- Deliveries --------------------------------------------------------- *)

and deliver t inst s =
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
       terminated instance has already left the contend sets. *)
    if is_open inst.status then begin
      Contenders.remove t.contenders.(j) inst.uid;
      t.cover.(j) <- t.cover.(j) + 1;
      recheck_watchdog t j
    end;
    Hashtbl.replace t.received_bodies.(j) inst.body ();
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
    if is_served inst s then t.cover.(j) <- t.cover.(j) - 1
    else Contenders.remove t.contenders.(j) inst.uid;
    recheck_watchdog t j
  done;
  t.busy.(inst.sender) <- false;
  t.current.(inst.sender) <- None;
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
  match t.current.(node) with
  | None ->
      raise
        (Not_well_formed
           (Printf.sprintf "node %d aborted with no broadcast in flight" node))
  | Some inst ->
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
          (Dsim.Sim.schedule ~cat:"mac.abort_gc" t.sim
             ~delay:(t.eps_abort +. 1e-9) (fun () ->
               cancel_pending t inst;
               recycle t inst))

(* --- Plan validation ---------------------------------------------------- *)

(* Also leaves, in [scratch_slot], each G'-neighbor's slot in [g'_row]
   for [bcast] to schedule the plan's deliveries with. *)
let validate_plan t ~g_row ~g'_row (plan : Mac_intf.plan) =
  let { Mac_intf.ack_delay; deliveries } = plan in
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
  List.iter
    (fun { Mac_intf.receiver; delay } ->
      if receiver < 0 || receiver >= n then
        invalid_arg "Standard_mac: plan delivers to a non-G'-neighbor";
      if t.scratch_seen.(receiver) = epoch then
        invalid_arg "Standard_mac: plan delivers twice to one receiver";
      t.scratch_seen.(receiver) <- epoch;
      if t.scratch_nbr.(receiver) <> epoch then
        invalid_arg "Standard_mac: plan delivers to a non-G'-neighbor";
      if not (0. <= delay && delay <= ack_delay) then
        invalid_arg "Standard_mac: plan delivery delay outside [0, ack_delay]")
    deliveries;
  Array.iter
    (fun j ->
      if t.scratch_seen.(j) <> epoch then
        invalid_arg "Standard_mac: plan misses a G-neighbor")
    g_row

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
    }
  in
  let plan = t.policy.Mac_intf.pol_plan ctx in
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
  let inst =
    { uid; sender = node; body; status = Open; g_row; g'_row; served;
      pending; ack_handle = Dsim.Sim.no_event }
  in
  t.current.(node) <- Some inst;
  for s = 0 to d - 1 do
    Contenders.add t.contenders.(g'_row.(s)) ~uid ~sender:node
  done;
  for i = 0 to Array.length g_row - 1 do
    let j = g_row.(i) in
    t.connected_open.(j) <- t.connected_open.(j) + 1;
    recheck_watchdog t j
  done;
  (* Deliveries are scheduled before the ack so that equal-timestamp
     deliveries execute first (the heap is FIFO-stable), preserving
     ack correctness. *)
  List.iter
    (fun { Mac_intf.receiver; delay } ->
      let s = t.scratch_slot.(receiver) in
      pending.(s) <-
        Dsim.Sim.schedule ~cat:"mac.deliver" t.sim ~delay (fun () ->
            deliver t inst s))
    plan.Mac_intf.deliveries;
  inst.ack_handle <-
    Dsim.Sim.schedule ~cat:"mac.ack" t.sim ~delay:plan.Mac_intf.ack_delay
      (fun () -> ack t inst)
