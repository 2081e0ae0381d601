type violation = { rule : string; detail : string }

let pp_violation ppf { rule; detail } = Fmt.pf ppf "[%s] %s" rule detail

let violation rule fmt = Format.kasprintf (fun detail -> { rule; detail }) fmt

type state = Open | Acked | Aborted

(* One broadcast instance, kept for the whole run. *)
type minst = {
  m_sender : int;
  m_bcast_time : float;
  m_g' : Graphs.Graph.t;
      (* the G' in force when the instance opened: for static runs the
         base G' itself; for dynamic runs the epoch-current unreliable
         graph pinned (read-only) at Bcast time *)
  mutable m_state : state;
  mutable m_term : float; (* the terminating event's time; +inf while open *)
  mutable m_rcvd : int array;
  mutable m_nrcvd : int;
      (* receivers delivered to so far, ascending in [m_rcvd.(0 ..
         m_nrcvd - 1)]; until the instance terminates, exactly the
         receivers it covers *)
}

(* Per receiver: the receipts the progress bound may still need, and the
   instances whose connected spans it lies in. *)
type receiver = {
  mutable rcv_at : float array; (* receive times, ascending *)
  mutable rcv_of : minst array; (* the instance of each receipt *)
  mutable rcvs : int;
  mutable spans : minst array;
      (* G-neighbors' instances in Bcast order, live in [head, tail):
         a FIFO popped once its front has terminated *)
  mutable head : int;
  mutable tail : int;
}

type t = {
  g : Graphs.Graph.t;
  g' : Graphs.Graph.t; (* base (union) G' — every epoch is a subset *)
  dyn : Dyn.Dual.t option; (* read-only: pins epoch-current G' per Bcast *)
  mutable churned : int; (* epoch-classified anomalies, not violations *)
  fack : float;
  fprog : float;
  eps_abort : float;
  tol : float;
  insts : (int, minst) Hashtbl.t;
  mutable open_insts : int; (* [finish] skips its sweep when 0 *)
  nil : minst; (* filler for unused array slots, never read *)
  recv : receiver array;
  point : float array; (* one cell, unboxed: the sweep's covered-up-to point *)
  mutable end_time : float;
  mutable last_bcast : float;
  mutable misordered : bool; (* a trace-order violation was reported *)
  (* Empirical progress-gap tracking (the watchdog condition, observed). *)
  connected_open : int array;
  cover : int array;
  danger_since : float array; (* nan when not in danger *)
  on_gap : (float -> unit) option;
  on_violation : Dsim.Trace.entry option -> violation -> unit;
  mutable violations : violation list; (* reversed *)
  mutable cur_entry : Dsim.Trace.entry; (* entry being processed ... *)
  mutable at_horizon : bool; (* ... unless [finish] is running *)
  mutable finished : bool;
}

let create ~dual ~fack ~fprog ?(eps_abort = 0.) ?dyn
    ?(on_violation = fun _ _ -> ()) ?on_gap () =
  let n = Graphs.Dual.n dual in
  let g' = Graphs.Dual.unreliable dual in
  let nil =
    {
      m_sender = -1;
      m_bcast_time = Float.nan;
      m_g' = g';
      m_state = Open;
      m_term = Float.infinity;
      m_rcvd = [||];
      m_nrcvd = 0;
    }
  in
  {
    g = Graphs.Dual.reliable dual;
    g';
    dyn;
    churned = 0;
    fack;
    fprog;
    eps_abort;
    tol = 1e-9 *. Float.max 1. fack;
    insts = Hashtbl.create 256;
    open_insts = 0;
    nil;
    recv =
      Array.init n (fun _ ->
          {
            rcv_at = [||];
            rcv_of = [||];
            rcvs = 0;
            spans = [||];
            head = 0;
            tail = 0;
          });
    point = [| 0. |];
    end_time = 0.;
    last_bcast = Float.neg_infinity;
    misordered = false;
    connected_open = Array.make n 0;
    cover = Array.make n 0;
    danger_since = Array.make n Float.nan;
    on_gap;
    on_violation;
    violations = [];
    cur_entry =
      {
        Dsim.Trace.time = 0.;
        event = Dsim.Trace.Arrive { node = -1; msg = -1 };
      };
    at_horizon = true;
    finished = false;
  }

let add t v =
  t.violations <- v :: t.violations;
  t.on_violation (if t.at_horizon then None else Some t.cur_entry) v

let is_open inst =
  match inst.m_state with Open -> true | Acked | Aborted -> false

(* A fresh array with room for twice [len] elements (at least 4),
   starting with the first [len] of [a]. *)
let grow a len fill =
  let b = Array.make (max 4 (2 * len)) fill in
  Array.blit a 0 b 0 len;
  b

(* Where [j] is, or belongs, in [inst]'s sorted receivers. *)
let rcvd_pos inst j =
  let lo = ref 0 and hi = ref inst.m_nrcvd in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if inst.m_rcvd.(mid) < j then lo := mid + 1 else hi := mid
  done;
  !lo

let has_rcvd inst j =
  let p = rcvd_pos inst j in
  p < inst.m_nrcvd && inst.m_rcvd.(p) = j

(* The shift is an int loop, not [Array.blit]: once [m_rcvd] is in the
   major heap, the runtime's blit runs a [caml_modify] per element it
   moves, not knowing they are ints. *)
let insert_rcvd inst p j =
  let len = inst.m_nrcvd in
  if len = Array.length inst.m_rcvd then inst.m_rcvd <- grow inst.m_rcvd len 0;
  let a = inst.m_rcvd in
  for k = len downto p + 1 do
    a.(k) <- a.(k - 1)
  done;
  a.(p) <- j;
  inst.m_nrcvd <- len + 1

(* Keep [r]'s receipts ordered by receive time.  Engine traces arrive in
   time order, so the new receipt almost always lands at the end. *)
let add_receipt t r inst time =
  if r.rcvs = Array.length r.rcv_at then begin
    r.rcv_at <- grow r.rcv_at r.rcvs 0.;
    r.rcv_of <- grow r.rcv_of r.rcvs t.nil
  end;
  let k = ref r.rcvs in
  while !k > 0 && r.rcv_at.(!k - 1) > time do
    r.rcv_at.(!k) <- r.rcv_at.(!k - 1);
    r.rcv_of.(!k) <- r.rcv_of.(!k - 1);
    decr k
  done;
  r.rcv_at.(!k) <- time;
  r.rcv_of.(!k) <- inst;
  r.rcvs <- r.rcvs + 1

(* Append to [r]'s FIFO, sliding its live part to the front when the
   array is full but at most half live, and doubling it otherwise. *)
let push_span t r inst =
  let cap = Array.length r.spans in
  if r.tail = cap then begin
    let live = r.tail - r.head in
    let spans =
      if cap = 0 || 2 * live > cap then Array.make (max 4 (2 * cap)) t.nil
      else r.spans
    in
    Array.blit r.spans r.head spans 0 live;
    r.spans <- spans;
    r.head <- 0;
    r.tail <- live
  end;
  r.spans.(r.tail) <- inst;
  r.tail <- r.tail + 1

let gap t since ~now =
  match t.on_gap with Some f -> f (now -. since) | None -> ()

let update_danger t j ~now =
  let dangerous = t.connected_open.(j) > 0 && t.cover.(j) = 0 in
  let since = t.danger_since.(j) in
  if dangerous then begin
    if Float.is_nan since then t.danger_since.(j) <- now
  end
  else if not (Float.is_nan since) then begin
    gap t since ~now;
    t.danger_since.(j) <- Float.nan
  end

(* The progress bound for receiver [j] on [inst]'s connected span
   [b, term_time], checked the moment the span closes.  A receipt at
   time r from an instance ending at tt (+inf while open) covers the
   window starts x in [r - Fprog, tt]; the bound holds iff those
   intervals cover [b, term_time - Fprog], up to [tol] gaps.  The
   receipts are sorted by r, so one pass sweeps them in interval order.

   The same pass drops every receipt whose instance ended before the
   floor: this span's start, or that of the oldest still-open instance
   from a G-neighbor if earlier.  Every span checked later at [j] starts
   at or after the floor (Bcasts come in time order), and an interval
   ending before a span starts cannot move its sweep. *)
let check_span t j inst ~term_time =
  let r = t.recv.(j) in
  while r.head < r.tail && not (is_open r.spans.(r.head)) do
    r.head <- r.head + 1
  done;
  let b = inst.m_bcast_time in
  let hi = term_time -. t.fprog in
  if hi -. b > t.tol then begin
    let floor =
      if r.head < r.tail && r.spans.(r.head).m_bcast_time < b then
        r.spans.(r.head).m_bcast_time
      else b
    in
    let point = t.point in
    point.(0) <- b;
    (* 0: undecided; 1: covered; -1: a gap wider than [tol] *)
    let verdict = ref 0 and kept = ref 0 in
    for k = 0 to r.rcvs - 1 do
      let from = r.rcv_of.(k) in
      let tt = from.m_term in
      if not (tt < floor) then begin
        let at = r.rcv_at.(k) in
        r.rcv_at.(!kept) <- at;
        r.rcv_of.(!kept) <- from;
        incr kept;
        let lo = at -. t.fprog in
        if !verdict = 0 && tt >= lo then
          if point.(0) >= hi -. t.tol then verdict := 1
          else if lo > point.(0) +. t.tol then verdict := -1
          else if tt > point.(0) then point.(0) <- tt
      end
    done;
    r.rcvs <- !kept;
    let covered =
      if !verdict = 0 then point.(0) >= hi -. t.tol else !verdict > 0
    in
    if not covered then
      add t
        (violation "progress-bound"
           "receiver %d starved during [%g, %g] (connected span [%g, %g], \
            Fprog = %g)"
           j b hi b term_time t.fprog)
  end

(* Shared terminating-event bookkeeping: close the instance's connected
   spans (checking the progress bound on each) and unwind the empirical
   danger state. *)
let terminate t inst ~time =
  let nbrs = Graphs.Graph.neighbors t.g inst.m_sender in
  for i = 0 to Array.length nbrs - 1 do
    let j = nbrs.(i) in
    check_span t j inst ~term_time:time;
    t.connected_open.(j) <- t.connected_open.(j) - 1;
    update_danger t j ~now:time
  done;
  for i = 0 to inst.m_nrcvd - 1 do
    let j = inst.m_rcvd.(i) in
    t.cover.(j) <- t.cover.(j) - 1;
    update_danger t j ~now:time
  done

(* A terminating event (Ack or Abort) at [node] for [instance]: the
   sender check, the one-terminating-event rule, and — for the first
   one — closing the instance's spans. *)
let terminating t ~node ~instance ~time state =
  let what = match state with Acked -> "ack" | Open | Aborted -> "abort" in
  match Hashtbl.find t.insts instance with
  | exception Not_found ->
      add t
        (violation "cause-function" "%s for unknown instance %d" what instance)
  | inst -> (
      if inst.m_sender <> node then
        add t
          (violation "cause-function"
             "%s of instance %d at node %d, but sender is %d" what instance
             node inst.m_sender);
      (match inst.m_state with
      | Acked | Aborted ->
          add t
            (violation "ack-correctness"
               "instance %d has two terminating events" instance)
      | Open ->
          inst.m_state <- state;
          inst.m_term <- time;
          t.open_insts <- t.open_insts - 1;
          (match state with
          | Acked ->
              let nbrs = Graphs.Graph.neighbors t.g inst.m_sender in
              for i = 0 to Array.length nbrs - 1 do
                if not (has_rcvd inst nbrs.(i)) then
                  add t
                    (violation "ack-correctness"
                       "instance %d acked before delivering to G-neighbor %d"
                       instance nbrs.(i))
              done
          | Open | Aborted -> ());
          terminate t inst ~time);
      match state with
      | Acked when time -. inst.m_bcast_time > t.fack +. t.tol ->
          add t
            (violation "ack-bound" "instance %d acked %g after bcast (Fack = %g)"
               instance
               (time -. inst.m_bcast_time)
               t.fack)
      | _ -> ())

let bcast t ~node ~instance ~time =
  if time < t.last_bcast then begin
    if not t.misordered then begin
      t.misordered <- true;
      add t
        (violation "trace-order"
           "bcast of instance %d at %g comes after a bcast at %g; later \
            progress-bound verdicts may be spurious"
           instance time t.last_bcast)
    end
  end
  else t.last_bcast <- time;
  if Hashtbl.mem t.insts instance then
    add t (violation "cause-function" "instance %d broadcast twice" instance)
  else begin
    (* The MAC steps the epoch before recording Bcast, so the read-only
       [current] here is the G' this instance's plan was validated
       against. *)
    let g' =
      match t.dyn with
      | None -> t.g'
      | Some d -> Graphs.Dual.unreliable (Dyn.Dual.current d)
    in
    let inst =
      {
        m_sender = node;
        m_bcast_time = time;
        m_g' = g';
        m_state = Open;
        m_term = Float.infinity;
        m_rcvd = Array.make (Graphs.Graph.degree g' node) 0;
        m_nrcvd = 0;
      }
    in
    Hashtbl.replace t.insts instance inst;
    t.open_insts <- t.open_insts + 1;
    let nbrs = Graphs.Graph.neighbors t.g node in
    for i = 0 to Array.length nbrs - 1 do
      let j = nbrs.(i) in
      push_span t t.recv.(j) inst;
      t.connected_open.(j) <- t.connected_open.(j) + 1;
      update_danger t j ~now:time
    done
  end

let rcv t ~node ~instance ~time =
  match Hashtbl.find t.insts instance with
  | exception Not_found ->
      add t
        (violation "cause-function" "rcv at node %d from unknown instance %d"
           node instance)
  | inst ->
      if inst.m_sender = node then
        add t
          (violation "receive-correctness"
             "instance %d delivered to its own sender %d" instance node);
      if not (Graphs.Graph.mem_edge inst.m_g' inst.m_sender node) then
        if Graphs.Graph.mem_edge t.g' inst.m_sender node then
          (* In the union G' but not in the epoch pinned at bcast: the
             link churned away, the delivery is explained by the
             schedule, not by a MAC bug. *)
          t.churned <- t.churned + 1
        else
          add t
            (violation "receive-correctness"
               "instance %d delivered to %d, not a G'-neighbor of sender %d"
               instance node inst.m_sender);
      let p = rcvd_pos inst node in
      if p < inst.m_nrcvd && inst.m_rcvd.(p) = node then
        add t
          (violation "receive-correctness"
             "instance %d delivered twice to node %d" instance node)
      else begin
        insert_rcvd inst p node;
        if is_open inst then begin
          t.cover.(node) <- t.cover.(node) + 1;
          update_danger t node ~now:time
        end
      end;
      (match inst.m_state with
      | Acked ->
          add t
            (violation "receive-correctness"
               "instance %d delivered to %d at %g after its ack at %g"
               instance node time inst.m_term)
      | Aborted when time > inst.m_term +. t.eps_abort +. t.tol ->
          add t
            (violation "receive-correctness"
               "instance %d delivered to %d at %g, more than eps_abort after \
                abort at %g"
               instance node time inst.m_term)
      | Open | Aborted -> ());
      add_receipt t t.recv.(node) inst time

let on_entry t ({ Dsim.Trace.time; event } as entry) =
  t.cur_entry <- entry;
  t.at_horizon <- false;
  if time > t.end_time then t.end_time <- time;
  match event with
  | Dsim.Trace.Arrive _ | Dsim.Trace.Deliver _ -> ()
  | Dsim.Trace.Bcast { node; instance; _ } -> bcast t ~node ~instance ~time
  | Dsim.Trace.Rcv { node; instance; _ } -> rcv t ~node ~instance ~time
  | Dsim.Trace.Ack { node; instance; _ } ->
      terminating t ~node ~instance ~time Acked
  | Dsim.Trace.Abort { node; instance; _ } ->
      terminating t ~node ~instance ~time Aborted

let violations t = List.rev t.violations
let violation_count t = List.length t.violations
let churned_count t = t.churned

let finish ?(allow_open = false) t =
  if not t.finished then begin
    t.finished <- true;
    t.at_horizon <- true;
    (* Instances still open at the horizon: their connected spans run to
       the last observed event. *)
    if t.open_insts > 0 then
      Dsim.Tbl.sorted_iter ~cmp:Int.compare
        (fun uid inst ->
          if is_open inst then begin
            if not allow_open then
              add t
                (violation "termination" "instance %d never terminated" uid);
            let nbrs = Graphs.Graph.neighbors t.g inst.m_sender in
            for i = 0 to Array.length nbrs - 1 do
              check_span t nbrs.(i) inst ~term_time:t.end_time
            done
          end)
        t.insts;
    (* Close any still-running empirical danger windows at the horizon. *)
    for j = 0 to Array.length t.danger_since - 1 do
      let since = t.danger_since.(j) in
      if not (Float.is_nan since) then begin
        gap t since ~now:t.end_time;
        t.danger_since.(j) <- Float.nan
      end
    done
  end;
  violations t

let audit ~dual ~fack ~fprog ?eps_abort ?allow_open trace =
  let t = create ~dual ~fack ~fprog ?eps_abort () in
  Dsim.Trace.iter trace (on_entry t);
  finish ?allow_open t
