type params = {
  c : float;
  mis : Fmmb_mis.params;
  gather : Fmmb_gather.params;
  spread : Fmmb_spread.params;
}

let default_params ~n ~k ~c =
  {
    c;
    mis = Fmmb_mis.default_params ~n ~c;
    gather = Fmmb_gather.default_params ~n ~k ~c;
    spread = Fmmb_spread.default_params ~n ~c;
  }

type backend = Rounds | Continuous of Amac.Round_sync.mode

type result = {
  complete : bool;
  rounds_mis : int;
  rounds_gather : int;
  rounds_spread : int;
  total_rounds : int;
  time : float;
  mis_valid : bool;
  mis_size : int;
  gather_leftover : int;
}

(* One execution: the stage engines it runs one after another, the
   clock they share, and the ledger that dedups its deliveries. *)
type driver = {
  dual : Graphs.Dual.t;
  fprog : float;
  rng : Dsim.Rng.t;
  policy : Fmmb_msg.t Amac.Enhanced_mac.round_policy;
  backend : backend;
  trace : Dsim.Trace.t option;
  on_event : (time:float -> Dsim.Trace.event -> unit) option;
  note_sim : Dsim.Sim.t -> unit;
  tracker : Problem.tracker;
  mutable before : int;  (* rounds run by the stages before [engine]'s *)
  mutable engine : Fmmb_msg.t Amac.Round_engine.t option;
  mutable sims : Dsim.Sim.t list;  (* Continuous engines, newest first *)
}

let driver ~dual ~fprog ~rng ~policy ~backend ?trace ?on_event
    ?(note_sim = ignore) ~tracker () =
  {
    dual;
    fprog;
    rng;
    policy;
    backend;
    trace;
    on_event;
    note_sim;
    tracker;
    before = 0;
    engine = None;
    sims = [];
  }

(* The next stage's engine; the current one's rounds join [before]. *)
let stage x =
  Option.iter
    (fun e -> x.before <- x.before + e.Amac.Round_engine.rounds_done ())
    x.engine;
  let engine =
    match x.backend with
    | Rounds ->
        Amac.Round_engine.of_enhanced
          (Amac.Enhanced_mac.create ~dual:x.dual ~fprog:x.fprog
             ~policy:x.policy ~rng:x.rng ?trace:x.trace ())
    | Continuous mode ->
        let sim = Dsim.Sim.create () in
        x.sims <- sim :: x.sims;
        let mac =
          Amac.Standard_mac.create ~sim ~dual:x.dual ~fack:(100. *. x.fprog)
            ~fprog:x.fprog
            ~policy:(Amac.Round_sync.policy ~mode)
            ~rng:x.rng ?trace:x.trace ()
        in
        Amac.Round_engine.of_round_sync (Amac.Round_sync.create ~mac ())
  in
  x.engine <- Some engine;
  engine

(* Problem-level events go to [on_event], not to [trace]: the stage
   engines restart uids and times, so their MAC events must not share a
   stream with the monotone MMB lifecycle. *)
let record x ~time event =
  match x.on_event with None -> () | Some f -> f ~time event

(* A payload reception is a delivery the first time the node gets the
   payload, which the ledger says; it reads only the node's own bit,
   and no protocol choice depends on it.  A first delivery is stamped
   with the round it happens in (the rounds of the stages before this
   one plus the rounds done in it, times Fprog), so a repeat, the
   common case, costs one lookup and no time. *)
let deliver x ~node ~payload =
  if not (Problem.has x.tracker ~node ~msg:payload) then begin
    let rounds =
      match x.engine with
      | Some e -> x.before + e.Amac.Round_engine.rounds_done ()
      | None -> 0
    in
    let time = float_of_int rounds *. x.fprog in
    if Problem.deliver x.tracker ~node ~msg:payload ~time then
      record x ~time (Dsim.Trace.Deliver { node; msg = payload })
  end

let mis_stage x params =
  Fmmb_mis.run ~dual:x.dual ~rng:x.rng ~policy:x.policy ~params
    ~engine:(stage x) ()

let finish x ~mis ~rounds_gather ~rounds_spread ~gather_leftover =
  List.iter x.note_sim (List.rev x.sims);
  let n = Graphs.Dual.n x.dual in
  let mis_list =
    List.filter (fun v -> mis.Fmmb_mis.mis.(v)) (List.init n Fun.id)
  in
  let rounds_mis = mis.Fmmb_mis.rounds_run in
  let total_rounds = rounds_mis + rounds_gather + rounds_spread in
  {
    complete = Problem.complete x.tracker;
    rounds_mis;
    rounds_gather;
    rounds_spread;
    total_rounds;
    time = float_of_int total_rounds *. x.fprog;
    mis_valid =
      Graphs.Mis.is_maximal_independent (Graphs.Dual.reliable x.dual) mis_list;
    mis_size = List.length mis_list;
    gather_leftover;
  }

let run ~dual ~fprog ~rng ~policy ~params ~assignment ~tracker
    ?(backend = Rounds) ?max_spread_phases ?trace ?on_event ?note_sim () =
  let x =
    driver ~dual ~fprog ~rng ~policy ~backend ?trace ?on_event ?note_sim
      ~tracker ()
  in
  (* Arrivals: payloads are delivered at their origins at time 0. *)
  let initial = Array.make (Graphs.Dual.n dual) [] in
  List.iter
    (fun (node, msg) ->
      initial.(node) <- msg :: initial.(node);
      record x ~time:0. (Dsim.Trace.Arrive { node; msg });
      deliver x ~node ~payload:msg)
    assignment;
  let mis = mis_stage x params.mis in
  let gather =
    Fmmb_gather.run ~dual ~rng ~policy ~params:params.gather ~mis:mis.Fmmb_mis.mis
      ~initial ~on_payload:(deliver x) ~engine:(stage x) ()
  in
  (* Spread until the tracker observes completion. *)
  let max_phases =
    match max_spread_phases with
    | Some p -> p
    | None ->
        let d = Graphs.Bfs.diameter (Graphs.Dual.reliable dual) in
        (4 * (d + List.length assignment)) + 8
  in
  let spread =
    Fmmb_spread.run ~dual ~rng ~policy ~params:params.spread ~mis:mis.Fmmb_mis.mis
      ~sets:gather.Fmmb_gather.mis_sets ~on_payload:(deliver x)
      ~stop:(fun () -> Problem.complete tracker)
      ~max_phases ~engine:(stage x) ()
  in
  finish x ~mis ~rounds_gather:gather.Fmmb_gather.rounds_run
    ~rounds_spread:spread.Fmmb_spread.rounds_run
    ~gather_leftover:gather.Fmmb_gather.leftover

(* Stream round [r] is in period [r / 3]: even periods gather and odd
   ones spread, so it is round [(r / 6 * 3) + (r mod 3)] of its
   subroutine. *)
let gathering r = r / 3 mod 2 = 0
let subroutine_round r = (r / 6 * 3) + (r mod 3)

let run_streaming ~dual ~fprog ~rng ~policy ~c ~arrivals ~tracker ~max_rounds
    =
  let n = Graphs.Dual.n dual in
  let x = driver ~dual ~fprog ~rng ~policy ~backend:Rounds ~tracker () in
  let mis = mis_stage x (Fmmb_mis.default_params ~n ~c) in
  let engine = stage x in
  (* One set per node: custody at MIS nodes, payloads not yet
     acknowledged elsewhere. *)
  let sets = Array.init n (fun _ -> Dsim.Bitset.create ~width:0) in
  let params = Fmmb_spread.default_params ~n ~c in
  let gather =
    Fmmb_gather.init ~p_active:params.Fmmb_spread.p_active ~use_acks:true
      ~rng ~mis:mis.Fmmb_mis.mis ~sets ~on_payload:(deliver x)
  in
  let spread =
    Fmmb_spread.init ~params ~rng ~mis:mis.Fmmb_mis.mis ~sets
      ~on_payload:(deliver x)
  in
  for v = 0 to n - 1 do
    engine.Amac.Round_engine.set_node ~node:v (fun ~round ~inbox ->
        (if round > 0 then
           let r = round - 1 in
           if gathering r then
             Fmmb_gather.receive gather ~node:v ~round:(subroutine_round r)
               inbox
           else
             Fmmb_spread.receive spread ~node:v ~round:(subroutine_round r)
               inbox);
        if gathering round then
          Fmmb_gather.act gather ~node:v ~round:(subroutine_round round)
        else Fmmb_spread.act spread ~node:v ~round:(subroutine_round round))
  done;
  (* An arrival at time T joins at stream round
     max(0, ceil((T - mis_end) / fprog)). *)
  let mis_end = float_of_int mis.Fmmb_mis.rounds_run *. fprog in
  let by_round =
    List.sort
      (fun (r1, n1, m1) (r2, n2, m2) ->
        let c = Int.compare r1 r2 in
        if c <> 0 then c
        else
          let c = Int.compare n1 n2 in
          if c <> 0 then c else Int.compare m1 m2)
      (List.map
         (fun (time, node, msg) ->
           let r =
             if time <= mis_end then 0
             else int_of_float (ceil ((time -. mis_end) /. fprog))
           in
           (r, node, msg))
         arrivals)
  in
  let rounds () = engine.Amac.Round_engine.rounds_done () in
  let rec drive = function
    | [] ->
        ignore
          (engine.Amac.Round_engine.run_until
             ~max_rounds:(max_rounds - rounds ())
             ~stop:(fun () -> Problem.complete tracker))
    | (r, node, payload) :: rest ->
        let gap = r - rounds () in
        if gap > 0 then
          ignore
            (engine.Amac.Round_engine.run_until ~max_rounds:gap
               ~stop:(fun () -> false));
        deliver x ~node ~payload;
        Dsim.Bitset.add sets.(node) payload;
        drive rest
  in
  drive by_round;
  let stream = rounds () in
  let rounds_gather = (stream / 6 * 3) + min (stream mod 6) 3 in
  finish x ~mis ~rounds_gather ~rounds_spread:(stream - rounds_gather)
    ~gather_leftover:(Fmmb_gather.leftover gather)
