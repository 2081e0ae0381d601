(* Observed runs: the Mmb.Instrument seam wired to the observability the
   protocol layer itself is not allowed to know about (check A1).  Every
   harness that wants engine-cost accounting (Obs.Global), an attached
   Observer or live trace consumers builds its instrument here; pure
   tests and examples call Mmb.Runner directly and get none of it. *)

(* A constant, so unobserved runs allocate nothing for it. *)
let unobserved =
  {
    Mmb.Instrument.none with
    Mmb.Instrument.note_sim = Global.note_sim;
    note_mac = Global.note_mac;
  }

let instrument ?obs ?attach () =
  match (obs, attach) with
  | None, None -> unobserved
  | _ ->
      {
        Mmb.Instrument.want_trace = true;
        attach =
          (fun ledger tr ->
            Option.iter (fun o -> Observer.attach o ledger tr) obs;
            Option.iter (fun f -> f ledger tr) attach);
        checker = Option.bind obs Observer.monitor;
        wire_sim =
          (match obs with Some o -> Observer.wire_sim o | None -> ignore);
        finish =
          (fun ~allow_open ->
            Option.iter (fun o -> ignore (Observer.finish o ~allow_open)) obs);
        note_sim = Global.note_sim;
        note_mac = Global.note_mac;
      }

let bmmb ~dual ~fack ~fprog ~policy ~assignment ~seed ?discipline
    ?check_compliance ?max_events ?dyn ?obs ?setup () =
  Mmb.Runner.run_bmmb ~dual ~fack ~fprog ~policy ~assignment ~seed
    ?discipline ?check_compliance ?max_events ?dyn
    ~instrument:(instrument ?obs ()) ?setup ()

let bmmb_online ~dual ~fack ~fprog ~policy ~arrivals ~seed ?discipline
    ?check_compliance ?max_events ?dyn ?obs ?setup () =
  Mmb.Runner.run_bmmb_online ~dual ~fack ~fprog ~policy ~arrivals ~seed
    ?discipline ?check_compliance ?max_events ?dyn
    ~instrument:(instrument ?obs ()) ?setup ()

let fmmb ~dual ~fprog ~c ~policy ~assignment ~seed ?backend ?params
    ?max_spread_phases ?obs () =
  Mmb.Runner.run_fmmb ~dual ~fprog ~c ~policy ~assignment ~seed ?backend
    ?params ?max_spread_phases ~instrument:(instrument ?obs ()) ()
