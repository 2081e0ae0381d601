type violation = { rule : string; detail : string }

let pp_violation ppf { rule; detail } = Fmt.pf ppf "[%s] %s" rule detail

let violation rule fmt = Format.kasprintf (fun detail -> { rule; detail }) fmt

(* Merge closed intervals and test whether [lo, hi] is fully covered. *)
let covered intervals ~lo ~hi ~tol =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Float.compare a b)
      (List.filter (fun (a, b) -> b >= a) intervals)
  in
  let rec sweep point = function
    | [] -> point >= hi -. tol
    | (a, b) :: rest ->
        if point >= hi -. tol then true
        else if a > point +. tol then false
        else sweep (Float.max point b) rest
  in
  sweep lo sorted

(* One broadcast instance, kept for the whole run. *)
type minst = {
  m_sender : int;
  m_bcast_time : float;
  m_g' : Graphs.Graph.t;
      (* the G' in force when the instance opened: for static runs the
         base G' itself; for dynamic runs the epoch-current unreliable
         graph pinned (read-only) at Bcast time *)
  mutable m_term : (float * [ `Ack | `Abort ]) option;
  m_rcvd : (int, unit) Hashtbl.t;
      (* receivers delivered to so far; until the instance terminates,
         exactly the receivers it covers *)
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
  mutable end_time : float;
  coverage : (int * float) list array; (* per receiver: (uid, rcv_time), rev *)
  (* Empirical progress-gap tracking (the watchdog condition, observed). *)
  connected_open : int array;
  cover : int array;
  danger_since : float option array;
  on_gap : (float -> unit) option;
  on_violation : Dsim.Trace.entry option -> violation -> unit;
  mutable violations : violation list; (* reversed *)
  mutable cur_entry : Dsim.Trace.entry option; (* entry being processed *)
  mutable finished : bool;
}

let create ~dual ~fack ~fprog ?(eps_abort = 0.) ?dyn
    ?(on_violation = fun _ _ -> ()) ?on_gap () =
  let n = Graphs.Dual.n dual in
  {
    g = Graphs.Dual.reliable dual;
    g' = Graphs.Dual.unreliable dual;
    dyn;
    churned = 0;
    fack;
    fprog;
    eps_abort;
    tol = 1e-9 *. Float.max 1. fack;
    insts = Hashtbl.create 256;
    end_time = 0.;
    coverage = Array.make n [];
    connected_open = Array.make n 0;
    cover = Array.make n 0;
    danger_since = Array.make n None;
    on_gap;
    on_violation;
    violations = [];
    cur_entry = None;
    finished = false;
  }

let add t v =
  t.violations <- v :: t.violations;
  t.on_violation t.cur_entry v

let gap t since ~now =
  match t.on_gap with Some f -> f (now -. since) | None -> ()

let update_danger t j ~now =
  let dangerous = t.connected_open.(j) > 0 && t.cover.(j) = 0 in
  match (t.danger_since.(j), dangerous) with
  | None, true -> t.danger_since.(j) <- Some now
  | Some since, false ->
      gap t since ~now;
      t.danger_since.(j) <- None
  | _ -> ()

(* The progress bound for one connected span [b, term_time], checked at the
   moment the spanning instance terminates.  Coverage intervals of
   still-open contenders extend to +inf: later events cannot start
   earlier than now, so no later termination can shrink them below the
   span's end. *)
let check_span t ~j ~b ~term_time =
  let hi = term_time -. t.fprog in
  if hi -. b > t.tol then begin
    let intervals =
      List.rev_map
        (fun (uid, rcv_time) ->
          let hi' =
            match Hashtbl.find_opt t.insts uid with
            | Some i -> (
                match i.m_term with Some (tt, _) -> tt | None -> infinity)
            | None -> infinity
          in
          (rcv_time -. t.fprog, hi'))
        t.coverage.(j)
    in
    if not (covered intervals ~lo:b ~hi ~tol:t.tol) then
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
  Array.iter
    (fun j ->
      check_span t ~j ~b:inst.m_bcast_time ~term_time:time;
      t.connected_open.(j) <- t.connected_open.(j) - 1;
      update_danger t j ~now:time)
    (Graphs.Graph.neighbors t.g inst.m_sender);
  Dsim.Tbl.sorted_iter ~cmp:Int.compare
    (fun j () ->
      t.cover.(j) <- t.cover.(j) - 1;
      update_danger t j ~now:time)
    inst.m_rcvd

(* A terminating event (Ack or Abort) at [node] for [instance]: the
   sender check, the one-terminating-event rule, and — for the first
   one — closing the instance's spans. *)
let terminating t ~node ~instance ~time kind =
  let what = match kind with `Ack -> "ack" | `Abort -> "abort" in
  match Hashtbl.find_opt t.insts instance with
  | None ->
      add t
        (violation "cause-function" "%s for unknown instance %d" what instance)
  | Some inst -> (
      if inst.m_sender <> node then
        add t
          (violation "cause-function"
             "%s of instance %d at node %d, but sender is %d" what instance
             node inst.m_sender);
      (match inst.m_term with
      | Some _ ->
          add t
            (violation "ack-correctness"
               "instance %d has two terminating events" instance)
      | None ->
          inst.m_term <- Some (time, kind);
          (match kind with
          | `Ack ->
              Array.iter
                (fun j ->
                  if not (Hashtbl.mem inst.m_rcvd j) then
                    add t
                      (violation "ack-correctness"
                         "instance %d acked before delivering to G-neighbor \
                          %d"
                         instance j))
                (Graphs.Graph.neighbors t.g inst.m_sender)
          | `Abort -> ());
          terminate t inst ~time);
      match kind with
      | `Ack when time -. inst.m_bcast_time > t.fack +. t.tol ->
          add t
            (violation "ack-bound" "instance %d acked %g after bcast (Fack = %g)"
               instance
               (time -. inst.m_bcast_time)
               t.fack)
      | _ -> ())

let on_entry t ({ Dsim.Trace.time; event } as entry) =
  t.cur_entry <- Some entry;
  if time > t.end_time then t.end_time <- time;
  match event with
  | Dsim.Trace.Arrive _ | Dsim.Trace.Deliver _ -> ()
  | Dsim.Trace.Bcast { node; instance; _ } ->
      if Hashtbl.mem t.insts instance then
        add t
          (violation "cause-function" "instance %d broadcast twice" instance)
      else begin
        Hashtbl.replace t.insts instance
          {
            m_sender = node;
            m_bcast_time = time;
            (* The MAC steps the epoch before recording Bcast, so the
               read-only [current] here is the G' this instance's plan
               was validated against. *)
            m_g' =
              (match t.dyn with
              | None -> t.g'
              | Some d -> Graphs.Dual.unreliable (Dyn.Dual.current d));
            m_term = None;
            m_rcvd = Hashtbl.create 8;
          };
        Array.iter
          (fun j ->
            t.connected_open.(j) <- t.connected_open.(j) + 1;
            update_danger t j ~now:time)
          (Graphs.Graph.neighbors t.g node)
      end
  | Dsim.Trace.Rcv { node; instance; _ } -> (
      match Hashtbl.find_opt t.insts instance with
      | None ->
          add t
            (violation "cause-function" "rcv at node %d from unknown instance %d"
               node instance)
      | Some inst ->
          if inst.m_sender = node then
            add t
              (violation "receive-correctness"
                 "instance %d delivered to its own sender %d" instance node);
          if not (Graphs.Graph.mem_edge inst.m_g' inst.m_sender node) then
            if Graphs.Graph.mem_edge t.g' inst.m_sender node then
              (* In the union G' but not in the epoch pinned at bcast:
                 the link churned away, the delivery is explained by the
                 schedule, not by a MAC bug. *)
              t.churned <- t.churned + 1
            else
              add t
                (violation "receive-correctness"
                   "instance %d delivered to %d, not a G'-neighbor of sender %d"
                   instance node inst.m_sender);
          if Hashtbl.mem inst.m_rcvd node then
            add t
              (violation "receive-correctness"
                 "instance %d delivered twice to node %d" instance node)
          else begin
            Hashtbl.replace inst.m_rcvd node ();
            if Option.is_none inst.m_term then begin
              t.cover.(node) <- t.cover.(node) + 1;
              update_danger t node ~now:time
            end
          end;
          (match inst.m_term with
          | Some (tt, `Ack) ->
              add t
                (violation "receive-correctness"
                   "instance %d delivered to %d at %g after its ack at %g"
                   instance node time tt)
          | Some (tt, `Abort) when time > tt +. t.eps_abort +. t.tol ->
              add t
                (violation "receive-correctness"
                   "instance %d delivered to %d at %g, more than eps_abort \
                    after abort at %g"
                   instance node time tt)
          | _ -> ());
          t.coverage.(node) <- (instance, time) :: t.coverage.(node))
  | Dsim.Trace.Ack { node; instance; _ } ->
      terminating t ~node ~instance ~time `Ack
  | Dsim.Trace.Abort { node; instance; _ } ->
      terminating t ~node ~instance ~time `Abort

let violations t = List.rev t.violations
let violation_count t = List.length t.violations
let churned_count t = t.churned

let finish ?(allow_open = false) t =
  if not t.finished then begin
    t.finished <- true;
    t.cur_entry <- None;
    (* Instances still open at the horizon: their connected spans run to
       the last observed event. *)
    Dsim.Tbl.sorted_iter ~cmp:Int.compare
      (fun uid inst ->
        if Option.is_none inst.m_term then begin
          if not allow_open then
            add t (violation "termination" "instance %d never terminated" uid);
          Array.iter
            (fun j ->
              check_span t ~j ~b:inst.m_bcast_time ~term_time:t.end_time)
            (Graphs.Graph.neighbors t.g inst.m_sender)
        end)
      t.insts;
    (* Close any still-running empirical danger windows at the horizon. *)
    Array.iteri
      (fun j since ->
        match since with
        | Some s ->
            gap t s ~now:t.end_time;
            t.danger_since.(j) <- None
        | None -> ())
      t.danger_since
  end;
  violations t

let audit ~dual ~fack ~fprog ?eps_abort ?allow_open trace =
  let t = create ~dual ~fack ~fprog ?eps_abort () in
  Dsim.Trace.iter trace (on_entry t);
  finish ?allow_open t
