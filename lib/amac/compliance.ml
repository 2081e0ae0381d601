type violation = { rule : string; detail : string }

let pp_violation ppf { rule; detail } = Fmt.pf ppf "[%s] %s" rule detail

let violation rule fmt = Format.kasprintf (fun detail -> { rule; detail }) fmt

type state = Open | Acked | Aborted

type t = {
  g : Graphs.Graph.t;
  g' : Graphs.Graph.t; (* base (union) G' — every epoch is a subset *)
  dyn : Dyn.Dual.t option; (* read-only: pins epoch-current G' per Bcast *)
  mutable churned : int; (* epoch-classified anomalies, not violations *)
  fack : float;
  fprog : float;
  eps_abort : float;
  tol : float;
  (* Instances, numbered 0, 1, ... in Bcast order and kept for the whole
     run.  [number] numbers their uids, and the columns below are indexed
     by number; each has room for [Array.length sender] instances. *)
  number : Dsim.Int_table.t;
  mutable sender : int array;
  mutable state : state array;
  mutable bcast_at : float array;
  mutable term_at : float array; (* terminating event's time; +inf while open *)
  mutable view : int array;
      (* dynamic runs only ([||] otherwise): the G' in force when the
         instance opened, as an index in [views] *)
  mutable rcvd_off : int array;
      (* The receivers delivered to so far (until the instance
         terminates, exactly those it covers), as one bit per position
         in the sender's union G'-row: its [rcvd] members from
         [rcvd_off.(x)] on, set once that G'-neighbor received. *)
  rcvd : Dsim.Bitset.t;
  mutable rcvd_used : int;
  (* Receivers outside the sender's union G'-row, each a
     receive-correctness violation, as one list per instance: [strays]
     numbers the instances that have any, [stray_head] holds each one's
     newest cell c, and cell c names node [stray_node.(c)] and the cell
     before it, [stray_next.(c)] (-1 after the oldest). *)
  strays : Dsim.Int_table.t;
  mutable stray_head : int array;
  mutable stray_node : int array;
  mutable stray_next : int array;
  mutable n_strays : int;
  (* The unreliable graphs instances opened under: the base G', then for
     dynamic runs each epoch-current one, pinned (read-only) at Bcast. *)
  mutable views : Graphs.Graph.t array;
  mutable n_views : int;
  mutable pinned_epoch : int; (* the last view's epoch; -1 before one *)
  mutable open_insts : int; (* [finish] skips its sweep when 0 *)
  (* Per receiver j, by node: the receipts the progress bound may still
     need, and the instances whose connected spans it lies in, each in a
     segment of a shared pool.  Receipts: [rcvs.(j)] of them from
     [rc_off.(j)] on in [rc_at] (receive times, ascending) and [rc_of]
     (the instance of each), with room for [rc_cap.(j)].  Spans: the
     G-neighbors' instances in Bcast order, live in [sp.(head.(j) ..
     tail.(j) - 1)] within the [sp_cap.(j)] cells from [sp_off.(j)]: a
     FIFO popped once its front has terminated.  A segment that fills
     moves to the end of its pool with twice the room. *)
  rc_off : int array;
  rc_cap : int array;
  rcvs : int array;
  mutable rc_at : float array;
  mutable rc_of : int array;
  mutable rc_used : int;
  sp_off : int array;
  sp_cap : int array;
  head : int array;
  tail : int array;
  mutable sp : int array;
  mutable sp_used : int;
  (* One-cell float arrays, so the values stay unboxed. *)
  end_time : float array;
  last_bcast : float array;
  point : float array; (* the sweep's covered-up-to point *)
  mutable misordered : bool; (* a trace-order violation was reported *)
  (* Empirical progress-gap tracking (the watchdog condition, observed). *)
  connected_open : int array;
  cover : int array;
  danger_since : float array; (* nan when not in danger *)
  on_gap : (float -> unit) option;
  on_violation : Dsim.Trace.entry option -> violation -> unit;
  mutable violations : violation list; (* reversed *)
  mutable at_horizon : bool; (* no entry is being processed *)
  mutable finished : bool;
}

(* What [finish] passes where an entry is expected; [add] never reports
   it, since [at_horizon] is set. *)
let horizon =
  { Dsim.Trace.time = 0.; event = Dsim.Trace.Arrive { node = -1; msg = -1 } }

let create ~dual ~fack ~fprog ?(eps_abort = 0.) ?dyn
    ?(on_violation = fun _ _ -> ()) ?on_gap () =
  let n = Graphs.Dual.n dual in
  let g' = Graphs.Dual.unreliable dual in
  let cap = 16 in
  {
    g = Graphs.Dual.reliable dual;
    g';
    dyn;
    churned = 0;
    fack;
    fprog;
    eps_abort;
    tol = 1e-9 *. Float.max 1. fack;
    number = Dsim.Int_table.create ();
    sender = Array.make cap 0;
    state = Array.make cap Open;
    bcast_at = Array.make cap 0.;
    term_at = Array.make cap Float.infinity;
    view = (match dyn with None -> [||] | Some _ -> Array.make cap 0);
    rcvd_off = Array.make cap 0;
    rcvd = Dsim.Bitset.create ~width:(8 * cap);
    rcvd_used = 0;
    strays = Dsim.Int_table.create ();
    stray_head = [||];
    stray_node = [||];
    stray_next = [||];
    n_strays = 0;
    views = [| g' |];
    n_views = 1;
    pinned_epoch = -1;
    open_insts = 0;
    rc_off = Array.make n 0;
    rc_cap = Array.make n 0;
    rcvs = Array.make n 0;
    rc_at = Array.make n 0.;
    rc_of = Array.make n 0;
    rc_used = 0;
    sp_off = Array.make n 0;
    sp_cap = Array.make n 0;
    head = Array.make n 0;
    tail = Array.make n 0;
    sp = Array.make n 0;
    sp_used = 0;
    end_time = [| 0. |];
    last_bcast = [| Float.neg_infinity |];
    point = [| 0. |];
    misordered = false;
    connected_open = Array.make n 0;
    cover = Array.make n 0;
    danger_since = Array.make n Float.nan;
    on_gap;
    on_violation;
    violations = [];
    at_horizon = true;
    finished = false;
  }

let add t entry v =
  t.violations <- v :: t.violations;
  t.on_violation (if t.at_horizon then None else Some entry) v

let is_open t x = match t.state.(x) with Open -> true | Acked | Aborted -> false

(* [a] if it holds [need] cells, else a copy of its first [used] that
   does, at least twice as long. *)
let reserve a used need fill =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) fill in
    Array.blit a 0 b 0 used;
    b
  end

(* Room for twice as many instances in every column. *)
let grow_insts t =
  let len = Array.length t.sender in
  t.sender <- reserve t.sender len (len + 1) 0;
  t.state <- reserve t.state len (len + 1) Open;
  t.bcast_at <- reserve t.bcast_at len (len + 1) 0.;
  t.term_at <- reserve t.term_at len (len + 1) Float.infinity;
  (match t.dyn with
  | None -> ()
  | Some _ -> t.view <- reserve t.view len (len + 1) 0);
  t.rcvd_off <- reserve t.rcvd_off len (len + 1) 0

(* Open an empty receiver set for instance [x] of [sender]. *)
let open_rcvd t x sender =
  t.rcvd_off.(x) <- t.rcvd_used;
  t.rcvd_used <- t.rcvd_used + Graphs.Graph.degree t.g' sender

(* [x]'s [rcvd] position for [j], or -1 if [j] is not in the sender's
   union G'-row. *)
let rcvd_pos t x j =
  let row = Graphs.Graph.neighbors t.g' t.sender.(x) in
  let lo = ref 0 and hi = ref (Array.length row) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if row.(mid) < j then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length row && row.(!lo) = j then t.rcvd_off.(x) + !lo else -1

(* [x]'s newest stray cell, or -1. *)
let stray_cells t x =
  let s = Dsim.Int_table.find t.strays x in
  if s < 0 then -1 else t.stray_head.(s)

let is_stray t x j =
  let c = ref (stray_cells t x) in
  while !c >= 0 && t.stray_node.(!c) <> j do
    c := t.stray_next.(!c)
  done;
  !c >= 0

let add_stray t x j =
  let c = t.n_strays in
  t.stray_node <- reserve t.stray_node c (c + 1) 0;
  t.stray_next <- reserve t.stray_next c (c + 1) 0;
  t.stray_node.(c) <- j;
  t.stray_next.(c) <- stray_cells t x;
  let s = Dsim.Int_table.number t.strays x in
  t.stray_head <- reserve t.stray_head s (s + 1) 0;
  t.stray_head.(s) <- c;
  t.n_strays <- c + 1

(* [x]'s strays, ascending. *)
let strays_of t x =
  if t.n_strays = 0 then []
  else begin
    let rec walk c acc =
      if c < 0 then acc else walk t.stray_next.(c) (t.stray_node.(c) :: acc)
    in
    List.sort Int.compare (walk (stray_cells t x) [])
  end

let has_rcvd t x j =
  let b = rcvd_pos t x j in
  if b >= 0 then Dsim.Bitset.mem t.rcvd b else is_stray t x j

(* Move receiver [j]'s full receipt segment to the end of the pool, with
   twice the room (at least 4). *)
let move_receipts t j =
  let len = t.rcvs.(j) and off = t.rc_off.(j) in
  let cap = max 4 (2 * len) and off' = t.rc_used in
  t.rc_at <- reserve t.rc_at off' (off' + cap) 0.;
  t.rc_of <- reserve t.rc_of off' (off' + cap) 0;
  let at = t.rc_at and of_ = t.rc_of in
  for k = 0 to len - 1 do
    at.(off' + k) <- at.(off + k);
    of_.(off' + k) <- of_.(off + k)
  done;
  t.rc_off.(j) <- off';
  t.rc_cap.(j) <- cap;
  t.rc_used <- off' + cap

(* Keep [j]'s receipts ordered by receive time.  Engine traces arrive in
   time order, so the new receipt almost always lands at the end. *)
let add_receipt t j x time =
  if t.rcvs.(j) = t.rc_cap.(j) then move_receipts t j;
  let off = t.rc_off.(j) and at = t.rc_at and of_ = t.rc_of in
  let k = ref (off + t.rcvs.(j)) in
  while !k > off && at.(!k - 1) > time do
    at.(!k) <- at.(!k - 1);
    of_.(!k) <- of_.(!k - 1);
    decr k
  done;
  at.(!k) <- time;
  of_.(!k) <- x;
  t.rcvs.(j) <- t.rcvs.(j) + 1

(* Append to [j]'s FIFO.  A full segment slides its live part to its
   front when at most half is live, and moves to the end of the pool with
   twice the room otherwise. *)
let push_span t j x =
  let off = t.sp_off.(j) and cap = t.sp_cap.(j) in
  if t.tail.(j) = off + cap then begin
    let head = t.head.(j) in
    let live = off + cap - head in
    let off' =
      if cap = 0 || 2 * live > cap then begin
        let cap' = max 4 (2 * cap) and off' = t.sp_used in
        t.sp <- reserve t.sp off' (off' + cap') 0;
        t.sp_used <- off' + cap';
        t.sp_off.(j) <- off';
        t.sp_cap.(j) <- cap';
        off'
      end
      else off
    in
    (* Forward: a slide moves cells toward the segment's front. *)
    let sp = t.sp in
    for k = 0 to live - 1 do
      sp.(off' + k) <- sp.(head + k)
    done;
    t.head.(j) <- off';
    t.tail.(j) <- off' + live
  end;
  t.sp.(t.tail.(j)) <- x;
  t.tail.(j) <- t.tail.(j) + 1

(* The index in [views] of [d]'s epoch-current G', pinning it when its
   epoch is new.  Epochs never move backwards, and a G' stays fixed
   within its epoch. *)
let pin t d =
  let epoch = Dyn.Dual.epoch d in
  if epoch <> t.pinned_epoch then begin
    t.views <- reserve t.views t.n_views (t.n_views + 1) t.g';
    t.views.(t.n_views) <- Graphs.Dual.unreliable (Dyn.Dual.current d);
    t.n_views <- t.n_views + 1;
    t.pinned_epoch <- epoch
  end;
  t.n_views - 1

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

(* The progress bound for receiver [j] on instance [x]'s connected span
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
let check_span t entry j x ~term_time =
  let sp = t.sp in
  while t.head.(j) < t.tail.(j) && not (is_open t sp.(t.head.(j))) do
    t.head.(j) <- t.head.(j) + 1
  done;
  let b = t.bcast_at.(x) in
  let hi = term_time -. t.fprog in
  if hi -. b > t.tol then begin
    let head = t.head.(j) in
    let floor =
      if head < t.tail.(j) && t.bcast_at.(sp.(head)) < b then
        t.bcast_at.(sp.(head))
      else b
    in
    let point = t.point in
    point.(0) <- b;
    (* 0: undecided; 1: covered; -1: a gap wider than [tol] *)
    let verdict = ref 0 in
    let off = t.rc_off.(j) and at = t.rc_at and of_ = t.rc_of in
    let kept = ref off in
    for k = off to off + t.rcvs.(j) - 1 do
      let from = of_.(k) in
      let tt = t.term_at.(from) in
      if not (tt < floor) then begin
        let r = at.(k) in
        at.(!kept) <- r;
        of_.(!kept) <- from;
        incr kept;
        let lo = r -. t.fprog in
        if !verdict = 0 && tt >= lo then
          if point.(0) >= hi -. t.tol then verdict := 1
          else if lo > point.(0) +. t.tol then verdict := -1
          else if tt > point.(0) then point.(0) <- tt
      end
    done;
    t.rcvs.(j) <- !kept - off;
    let covered =
      if !verdict = 0 then point.(0) >= hi -. t.tol else !verdict > 0
    in
    if not covered then
      add t entry
        (violation "progress-bound"
           "receiver %d starved during [%g, %g] (connected span [%g, %g], \
            Fprog = %g)"
           j b hi b term_time t.fprog)
  end

let uncover t j ~time =
  t.cover.(j) <- t.cover.(j) - 1;
  update_danger t j ~now:time

(* Uncover the [strays] below [bound]; the rest. *)
let rec uncover_below t strays bound ~time =
  match strays with
  | j :: rest when j < bound ->
      uncover t j ~time;
      uncover_below t rest bound ~time
  | _ -> strays

(* Shared terminating-event bookkeeping: close the instance's connected
   spans (checking the progress bound on each) and unwind the empirical
   danger state. *)
let terminate t entry x ~time =
  let sender = t.sender.(x) in
  let nbrs = Graphs.Graph.neighbors t.g sender in
  for i = 0 to Array.length nbrs - 1 do
    let j = nbrs.(i) in
    check_span t entry j x ~term_time:time;
    t.connected_open.(j) <- t.connected_open.(j) - 1;
    update_danger t j ~now:time
  done;
  (* Every receiver, in ascending order: the row's, merged with any
     strays. *)
  let row = Graphs.Graph.neighbors t.g' sender and off = t.rcvd_off.(x) in
  let strays = ref (strays_of t x) in
  for p = 0 to Array.length row - 1 do
    if Dsim.Bitset.mem t.rcvd (off + p) then begin
      strays := uncover_below t !strays row.(p) ~time;
      uncover t row.(p) ~time
    end
  done;
  ignore (uncover_below t !strays max_int ~time)

(* A terminating event (Ack or Abort) at [node] for [instance]: the
   sender check, the one-terminating-event rule, and — for the first
   one — closing the instance's spans. *)
let terminating t entry ~node ~instance ~time state =
  let what = match state with Acked -> "ack" | Open | Aborted -> "abort" in
  let x = Dsim.Int_table.find t.number instance in
  if x < 0 then
    add t entry
      (violation "cause-function" "%s for unknown instance %d" what instance)
  else begin
    let sender = t.sender.(x) in
    if sender <> node then
      add t entry
        (violation "cause-function"
           "%s of instance %d at node %d, but sender is %d" what instance node
           sender);
    (match t.state.(x) with
    | Acked | Aborted ->
        add t entry
          (violation "ack-correctness" "instance %d has two terminating events"
             instance)
    | Open ->
        t.state.(x) <- state;
        t.term_at.(x) <- time;
        t.open_insts <- t.open_insts - 1;
        (match state with
        | Acked ->
            let nbrs = Graphs.Graph.neighbors t.g sender in
            for i = 0 to Array.length nbrs - 1 do
              if not (has_rcvd t x nbrs.(i)) then
                add t entry
                  (violation "ack-correctness"
                     "instance %d acked before delivering to G-neighbor %d"
                     instance nbrs.(i))
            done
        | Open | Aborted -> ());
        terminate t entry x ~time);
    match state with
    | Acked when time -. t.bcast_at.(x) > t.fack +. t.tol ->
        add t entry
          (violation "ack-bound" "instance %d acked %g after bcast (Fack = %g)"
             instance
             (time -. t.bcast_at.(x))
             t.fack)
    | Open | Acked | Aborted -> ()
  end

let bcast t entry ~node ~instance ~time =
  if time < t.last_bcast.(0) then begin
    if not t.misordered then begin
      t.misordered <- true;
      add t entry
        (violation "trace-order"
           "bcast of instance %d at %g comes after a bcast at %g; later \
            progress-bound verdicts may be spurious"
           instance time t.last_bcast.(0))
    end
  end
  else t.last_bcast.(0) <- time;
  if Dsim.Int_table.find t.number instance >= 0 then
    add t entry
      (violation "cause-function" "instance %d broadcast twice" instance)
  else begin
    (* A node out of range raises here, before any state changes. *)
    ignore (Graphs.Graph.neighbors t.g' node);
    let x = Dsim.Int_table.number t.number instance in
    if x = Array.length t.sender then grow_insts t;
    t.sender.(x) <- node;
    t.state.(x) <- Open;
    t.bcast_at.(x) <- time;
    t.term_at.(x) <- Float.infinity;
    (* The MAC steps the epoch before recording Bcast, so the read-only
       [current] here is the G' this instance's plan was validated
       against. *)
    (match t.dyn with
    | None -> ()
    | Some d -> t.view.(x) <- pin t d);
    open_rcvd t x node;
    t.open_insts <- t.open_insts + 1;
    let nbrs = Graphs.Graph.neighbors t.g node in
    for i = 0 to Array.length nbrs - 1 do
      let j = nbrs.(i) in
      push_span t j x;
      t.connected_open.(j) <- t.connected_open.(j) + 1;
      update_danger t j ~now:time
    done
  end

let rcv t entry ~node ~instance ~time =
  let x = Dsim.Int_table.find t.number instance in
  if x < 0 then
    add t entry
      (violation "cause-function" "rcv at node %d from unknown instance %d" node
         instance)
  else begin
    let sender = t.sender.(x) in
    if sender = node then
      add t entry
        (violation "receive-correctness"
           "instance %d delivered to its own sender %d" instance node);
    (* A node out of range raises here, as [Graph.mem_edge] would. *)
    ignore (Graphs.Graph.neighbors t.g' node);
    let b = rcvd_pos t x node in
    let in_pinned =
      match t.dyn with
      | None -> b >= 0 (* the pinned G' is the union G' *)
      | Some _ -> Graphs.Graph.mem_edge t.views.(t.view.(x)) sender node
    in
    if not in_pinned then
      if b >= 0 then
        (* In the union G' but not in the epoch pinned at bcast: the
           link churned away, the delivery is explained by the
           schedule, not by a MAC bug. *)
        t.churned <- t.churned + 1
      else
        add t entry
          (violation "receive-correctness"
             "instance %d delivered to %d, not a G'-neighbor of sender %d"
             instance node sender);
    let again =
      if b >= 0 then Dsim.Bitset.test_and_add t.rcvd b else is_stray t x node
    in
    if again then
      add t entry
        (violation "receive-correctness"
           "instance %d delivered twice to node %d" instance node)
    else begin
      if b < 0 then add_stray t x node;
      if is_open t x then begin
        t.cover.(node) <- t.cover.(node) + 1;
        update_danger t node ~now:time
      end
    end;
    (match t.state.(x) with
    | Acked ->
        add t entry
          (violation "receive-correctness"
             "instance %d delivered to %d at %g after its ack at %g" instance
             node time t.term_at.(x))
    | Aborted when time > t.term_at.(x) +. t.eps_abort +. t.tol ->
        add t entry
          (violation "receive-correctness"
             "instance %d delivered to %d at %g, more than eps_abort after \
              abort at %g"
             instance node time t.term_at.(x))
    | Open | Aborted -> ());
    add_receipt t node x time
  end

let on_entry t ({ Dsim.Trace.time; event } as entry) =
  t.at_horizon <- false;
  if time > t.end_time.(0) then t.end_time.(0) <- time;
  match event with
  | Dsim.Trace.Arrive _ | Dsim.Trace.Deliver _ -> ()
  | Dsim.Trace.Bcast { node; instance; _ } ->
      bcast t entry ~node ~instance ~time
  | Dsim.Trace.Rcv { node; instance; _ } -> rcv t entry ~node ~instance ~time
  | Dsim.Trace.Ack { node; instance; _ } ->
      terminating t entry ~node ~instance ~time Acked
  | Dsim.Trace.Abort { node; instance; _ } ->
      terminating t entry ~node ~instance ~time Aborted

let violations t = List.rev t.violations
let violation_count t = List.length t.violations
let churned_count t = t.churned

let finish ?(allow_open = false) t =
  if not t.finished then begin
    t.finished <- true;
    t.at_horizon <- true;
    (* Instances still open at the horizon, in ascending uid order: their
       connected spans run to the last observed event. *)
    if t.open_insts > 0 then begin
      let still_open = Array.make t.open_insts 0 and k = ref 0 in
      for x = 0 to Dsim.Int_table.length t.number - 1 do
        if is_open t x then begin
          still_open.(!k) <- x;
          incr k
        end
      done;
      let uid = Dsim.Int_table.key t.number in
      Array.sort (fun x y -> Int.compare (uid x) (uid y)) still_open;
      Array.iter
        (fun x ->
          if not allow_open then
            add t horizon
              (violation "termination" "instance %d never terminated" (uid x));
          let nbrs = Graphs.Graph.neighbors t.g t.sender.(x) in
          for i = 0 to Array.length nbrs - 1 do
            check_span t horizon nbrs.(i) x ~term_time:t.end_time.(0)
          done)
        still_open
    end;
    (* Close any still-running empirical danger windows at the horizon. *)
    for j = 0 to Array.length t.danger_since - 1 do
      let since = t.danger_since.(j) in
      if not (Float.is_nan since) then begin
        gap t since ~now:t.end_time.(0);
        t.danger_since.(j) <- Float.nan
      end
    done
  end;
  violations t

let audit ~dual ~fack ~fprog ?eps_abort ?allow_open trace =
  let t = create ~dual ~fack ~fprog ?eps_abort () in
  Dsim.Trace.iter trace (on_entry t);
  finish ?allow_open t
