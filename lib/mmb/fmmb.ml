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

(* One execution: the round engine its stages run on one after
   another, and the ledger that dedups its deliveries. *)
type driver = {
  tracker : Problem.tracker;
  engine : Fmmb_msg.t Amac.Round_engine.t;
  sim : Dsim.Sim.t option;  (* the [Continuous] engine's simulator *)
  dual : Graphs.Dual.t;
  fprog : float;
}

(* The engine records a body under its payload, and a control body
   under -1, so its MAC entries and the lifecycle share message ids. *)
let msg_id body = Option.value (Fmmb_msg.payload body) ~default:(-1)

let driver ~dual ~fprog ~rng ~policy ~backend ?trace ~tracker () =
  let engine, sim =
    match backend with
    | Rounds ->
        ( Amac.Round_engine.of_enhanced
            (Amac.Enhanced_mac.create ~dual ~fprog ~policy ~rng ?trace ~msg_id
               ()),
          None )
    | Continuous mode ->
        let sim = Dsim.Sim.create () in
        let mac =
          Amac.Standard_mac.create ~sim ~dual ~fack:(100. *. fprog) ~fprog
            ~policy:(Amac.Round_sync.policy ~mode)
            ~rng ?trace ~msg_id ()
        in
        ( Amac.Round_engine.of_round_sync (Amac.Round_sync.create ~mac ()),
          Some sim )
  in
  { tracker; engine; sim; dual; fprog }

(* The next stage's view of the engine: its rounds count from here. *)
let stage x = Amac.Round_engine.stage x.engine

(* A payload reception is a delivery the first time the node gets the
   payload, which the ledger says; it reads only the node's own bit,
   and no protocol choice depends on it.  A first delivery is stamped
   at the engine's clock, the round it happens in, so a repeat, the
   common case, costs one lookup and no time. *)
let deliver x ~node ~payload =
  if not (Problem.has x.tracker ~node ~msg:payload) then begin
    let time = x.engine.Amac.Round_engine.now () in
    if Problem.deliver x.tracker ~node ~msg:payload ~time then
      Amac.Round_engine.record x.engine
        (Dsim.Trace.Deliver { node; msg = payload })
  end

let finish x ~mis ~rounds_gather ~gather_leftover =
  let n = Graphs.Dual.n x.dual in
  let mis_list =
    List.filter (fun v -> mis.Fmmb_mis.mis.(v)) (List.init n Fun.id)
  in
  let rounds_mis = mis.Fmmb_mis.rounds_run in
  let total_rounds = x.engine.Amac.Round_engine.rounds_done () in
  {
    complete = Problem.complete x.tracker;
    rounds_mis;
    rounds_gather;
    rounds_spread = total_rounds - rounds_mis - rounds_gather;
    total_rounds;
    time = float_of_int total_rounds *. x.fprog;
    mis_valid =
      Graphs.Mis.is_maximal_independent (Graphs.Dual.reliable x.dual) mis_list;
    mis_size = List.length mis_list;
    gather_leftover;
  }

let run ~dual ~fprog ~rng ~policy ~params ~assignment ~tracker
    ?(backend = Rounds) ?max_spread_phases ?trace ?(note_sim = ignore) () =
  let x = driver ~dual ~fprog ~rng ~policy ~backend ?trace ~tracker () in
  (* Arrivals: payloads are delivered at their origins at time 0. *)
  let initial = Array.make (Graphs.Dual.n dual) [] in
  List.iter
    (fun (node, msg) ->
      initial.(node) <- msg :: initial.(node);
      Amac.Round_engine.record x.engine (Dsim.Trace.Arrive { node; msg });
      deliver x ~node ~payload:msg)
    assignment;
  let mis =
    Fmmb_mis.run ~dual ~rng ~policy ~params:params.mis ~engine:(stage x) ()
  in
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
  let (_ : Fmmb_spread.result) =
    Fmmb_spread.run ~dual ~rng ~policy ~params:params.spread ~mis:mis.Fmmb_mis.mis
      ~sets:gather.Fmmb_gather.mis_sets ~on_payload:(deliver x)
      ~stop:(fun () -> Problem.complete tracker)
      ~max_phases ~engine:(stage x) ()
  in
  Option.iter note_sim x.sim;
  finish x ~mis ~rounds_gather:gather.Fmmb_gather.rounds_run
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
  let mis =
    Fmmb_mis.run ~dual ~rng ~policy
      ~params:(Fmmb_mis.default_params ~n ~c)
      ~engine:(stage x) ()
  in
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
  finish x ~mis
    ~rounds_gather:((stream / 6 * 3) + min (stream mod 6) 3)
    ~gather_leftover:(Fmmb_gather.leftover gather)
