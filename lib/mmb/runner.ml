type bmmb_result = {
  complete : bool;
  time : float;
  upper_bound : float;
  within_bound : bool;
  bcasts : int;
  rcvs : int;
  acks : int;
  forced : int;
  duplicate_deliveries : int;
  deliveries : int;
  compliance_violations : Amac.Compliance.violation list;
  outcome : Dsim.Sim.outcome;
  events_executed : int;
  latencies : (int * float) list;
  spec_violations : string list;
}

(* BMMB payloads are the MMB message ids themselves, so the trace's [msg]
   fields carry them directly and spans can follow arrive -> bcast. *)
let bmmb_msg_id (m : int) = m

(* The one wiring behind every checked or instrumented run.  The
   checkers finish before the instrument, with open instances counted,
   so the verdict is what [Amac.Compliance.audit] returns on the same
   entries; an instrument's checker is already subscribed by [attach]. *)
let drive ~dual ~fack ~fprog ~check_compliance ~(instrument : Instrument.t)
    ~ledger execute =
  let trace =
    if check_compliance || instrument.want_trace then
      Some (Dsim.Trace.create ~enabled:false ())
    else None
  in
  (match trace with
  | Some tr when instrument.want_trace -> instrument.attach (ledger tr) tr
  | _ -> ());
  let checks =
    match trace with
    | Some tr when check_compliance ->
        let checker =
          match instrument.checker with
          | Some c -> c
          | None ->
              let c = Amac.Compliance.create ~dual ~fack ~fprog () in
              Dsim.Trace.subscribe tr (Amac.Compliance.on_entry c);
              c
        in
        let spec = Properties.create ~dual in
        Dsim.Trace.subscribe tr (Properties.on_entry spec);
        Some (checker, spec)
    | _ -> None
  in
  let allow_open, result = execute trace in
  let violations, spec_violations =
    match checks with
    | None -> ([], [])
    | Some (checker, spec) ->
        ( Amac.Compliance.finish ~allow_open:false checker,
          Properties.finish spec )
  in
  instrument.finish ~allow_open;
  (result, violations, spec_violations)

(* Whether a run met its upper bound. *)
let within ~upper ~complete ~time =
  complete && time <= upper +. (1e-6 *. Float.max 1. upper)

(* Every serial BMMB run: BMMB over the standard MAC on the serial
   engine, each of [arrivals] injected at its own time, wired through
   {!drive}.  [upper_bound] is evaluated once the run is over. *)
let run_serial ~dual ~fack ~fprog ~policy ~arrivals ~upper_bound ~seed
    ?(discipline = `Fifo) ?(check_compliance = false)
    ?(max_events = 50_000_000) ?dyn ?(instrument = Instrument.none) ?setup () =
  let tracker = Problem.tracker_timed ~dual arrivals in
  let (outcome, sim, mac), violations, spec_violations =
    drive ~dual ~fack ~fprog ~check_compliance ~instrument
      ~ledger:(fun _ -> tracker)
      (fun trace ->
        let sim = Dsim.Sim.create () in
        let rng = Dsim.Rng.create ~seed in
        instrument.wire_sim sim;
        let mac =
          Amac.Standard_mac.create ~sim ~dual ~fack ~fprog ~policy ~rng ?dyn
            ?trace ~msg_id:bmmb_msg_id ()
        in
        let bmmb =
          Bmmb.install ~discipline ~mac:(Amac.Mac_handle.of_standard mac)
            ~on_deliver:(fun ~node ~msg ~time ->
              Problem.on_deliver tracker ~node ~msg ~time)
            ()
        in
        Option.iter (fun f -> f sim) setup;
        List.iter
          (fun (time, node, msg) ->
            Amac.Standard_mac.env_at mac ~time (fun () ->
                Bmmb.arrive bmmb ~node ~msg))
          arrivals;
        let outcome = Dsim.Sim.run ~max_events sim in
        instrument.note_sim sim;
        instrument.note_mac
          ~bcasts:(Amac.Standard_mac.bcast_count mac)
          ~rcvs:(Amac.Standard_mac.rcv_count mac)
          ~acks:(Amac.Standard_mac.ack_count mac)
          ~forced:(Amac.Standard_mac.forced_count mac);
        (outcome <> Dsim.Sim.Drained, (outcome, sim, mac)))
  in
  let complete = Problem.complete tracker in
  let time =
    Option.value (Problem.completion_time tracker) ~default:Float.infinity
  in
  let upper_bound = upper_bound () in
  {
    complete;
    time;
    upper_bound;
    within_bound = within ~upper:upper_bound ~complete ~time;
    bcasts = Amac.Standard_mac.bcast_count mac;
    rcvs = Amac.Standard_mac.rcv_count mac;
    acks = Amac.Standard_mac.ack_count mac;
    forced = Amac.Standard_mac.forced_count mac;
    duplicate_deliveries = Problem.duplicate_deliveries tracker;
    deliveries = Problem.delivered_count tracker;
    compliance_violations = violations;
    outcome;
    events_executed = Dsim.Sim.executed_events sim;
    latencies = Problem.latencies tracker;
    spec_violations;
  }

let run_bmmb ~dual ~fack ~fprog ~policy ~assignment ~seed ?discipline
    ?check_compliance ?max_events ?dyn ?instrument ?setup () =
  run_serial ~dual ~fack ~fprog ~policy
    ~arrivals:(Problem.at_time_zero assignment)
    ~upper_bound:(fun () -> Bounds.bmmb_upper ~dual ~assignment ~fack ~fprog)
    ~seed ?discipline ?check_compliance ?max_events ?dyn ?instrument ?setup ()

(* No theorem bounds online arrivals. *)
let run_bmmb_online ~dual ~fack ~fprog ~policy ~arrivals ~seed ?discipline
    ?check_compliance ?max_events ?dyn ?instrument ?setup () =
  run_serial ~dual ~fack ~fprog ~policy ~arrivals
    ~upper_bound:(fun () -> Float.infinity)
    ~seed ?discipline ?check_compliance ?max_events ?dyn ?instrument ?setup ()

type pdes_result = {
  pd_complete : bool;
  pd_time : float;
  pd_upper_bound : float;
  pd_within_bound : bool;
  pd_bcasts : int;
  pd_rcvs : int;
  pd_acks : int;
  pd_deliveries : int;
  pd_remote : int;
  pd_events : int;
  pd_windows : int;
  pd_heap_high_water : int;
  pd_partitions : int;
  pd_domains : int;
  pd_cut_edges : int;
  pd_compliance_violations : Amac.Compliance.violation list;
  pd_spec_violations : string list;
}

(* The partitioned engine is its own deterministic execution, so P = 1
   does not approximate the serial engine — it *is* the serial engine:
   we delegate to [run_bmmb] (same policy, same RNG stream, same trace
   bytes) and only P >= 2 runs the horizon-parallel path, through the
   same [drive].  Either way the result is audited against the same paper
   bound.  P >= 2 has no one engine to wire or fold into the instrument's
   counters, so only its trace hooks and [finish] run. *)
let run_bmmb_pdes ~dual ~fack ~fprog ~policy ~assignment ~seed ~partitions
    ~domains ?mk_dyn ?(check_compliance = false)
    ?(instrument = Instrument.none) () =
  if fprog > fack then
    invalid_arg "run_bmmb_pdes: Fprog must not exceed Fack (ack bound)";
  if partitions = 1 then begin
    if domains <> 1 then
      raise (Pdes.Engine.Domains_exceed_partitions { domains; partitions });
    let dyn = Option.map (fun f -> f ()) mk_dyn in
    let r =
      run_bmmb ~dual ~fack ~fprog ~policy ~assignment ~seed ~check_compliance
        ?dyn ~instrument ()
    in
    {
      pd_complete = r.complete;
      pd_time = r.time;
      pd_upper_bound = r.upper_bound;
      pd_within_bound = r.within_bound;
      pd_bcasts = r.bcasts;
      pd_rcvs = r.rcvs;
      pd_acks = r.acks;
      pd_deliveries = r.deliveries;
      pd_remote = 0;
      pd_events = r.events_executed;
      pd_windows = 0;
      pd_heap_high_water = 0;
      pd_partitions = 1;
      pd_domains = 1;
      pd_cut_edges = 0;
      pd_compliance_violations = r.compliance_violations;
      pd_spec_violations = r.spec_violations;
    }
  end
  else begin
    (* The engine always runs until every heap drains, so an instance
       left open would be a violation.  It judges completion by its own
       count (Mega's per-node delivered bytes); the instrument's ledger
       reads the merged trace, subscribed ahead of the instrument so it
       takes each delivery first. *)
    let ledger trace =
      let l = Problem.tracker ~dual assignment in
      Dsim.Trace.subscribe trace (Problem.on_entry l);
      l
    in
    let r, violations, spec_violations =
      drive ~dual ~fack ~fprog ~check_compliance ~instrument ~ledger
        (fun trace ->
          ( false,
            Pdes.Engine.run ~dual ?mk_dyn ~fprog ~assignment ~seed ~partitions
              ~domains ?trace () ))
    in
    let upper_bound = Bounds.bmmb_upper ~dual ~assignment ~fack ~fprog in
    {
      pd_complete = r.Pdes.Engine.complete;
      pd_time = r.Pdes.Engine.time;
      pd_upper_bound = upper_bound;
      pd_within_bound =
        within ~upper:upper_bound ~complete:r.Pdes.Engine.complete
          ~time:r.Pdes.Engine.time;
      pd_bcasts = r.Pdes.Engine.bcasts;
      pd_rcvs = r.Pdes.Engine.rcvs;
      pd_acks = r.Pdes.Engine.acks;
      pd_deliveries = r.Pdes.Engine.deliveries;
      pd_remote = r.Pdes.Engine.remote_deliveries;
      pd_events = r.Pdes.Engine.events;
      pd_windows = r.Pdes.Engine.windows;
      pd_heap_high_water = r.Pdes.Engine.heap_high_water;
      pd_partitions = partitions;
      pd_domains = domains;
      pd_cut_edges = r.Pdes.Engine.cut_edges;
      pd_compliance_violations = violations;
      pd_spec_violations = spec_violations;
    }
  end

type fmmb_result = {
  fmmb : Fmmb.result;
  shape_bound : float;
  duplicate_deliveries' : int;
  latencies' : (int * float) list;
}

let fmmb_result ~tracker ~shape_bound fmmb =
  {
    fmmb;
    shape_bound;
    duplicate_deliveries' = Problem.duplicate_deliveries tracker;
    latencies' = Problem.latencies tracker;
  }

let run_fmmb ~dual ~fprog ~c ~policy ~assignment ~seed ?backend ?params
    ?max_spread_phases ?(instrument = Instrument.none) () =
  let rng = Dsim.Rng.create ~seed in
  let n = Graphs.Dual.n dual in
  let k = List.length assignment in
  let params =
    match params with Some p -> p | None -> Fmmb.default_params ~n ~k ~c
  in
  let tracker = Problem.tracker ~dual assignment in
  let fmmb =
    Fmmb.run ~dual ~fprog ~rng ~policy ~params ~assignment ~tracker ?backend
      ?max_spread_phases
      ?on_event:(instrument.Instrument.on_event tracker)
      ~note_sim:instrument.Instrument.note_sim ()
  in
  instrument.Instrument.finish ~allow_open:true;
  let d = Graphs.Bfs.diameter (Graphs.Dual.reliable dual) in
  fmmb_result ~tracker ~shape_bound:(Bounds.fmmb_shape ~n ~d ~k) fmmb

(* No theorem bounds online arrivals. *)
let run_fmmb_online ~dual ~fprog ~c ~policy ~arrivals ~seed ~max_rounds =
  let tracker = Problem.tracker_timed ~dual arrivals in
  let fmmb =
    Fmmb.run_streaming ~dual ~fprog ~rng:(Dsim.Rng.create ~seed) ~policy ~c
      ~arrivals ~tracker ~max_rounds
  in
  fmmb_result ~tracker ~shape_bound:Float.infinity fmmb
