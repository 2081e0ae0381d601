(* Runs whose entries a test reads.  A run result carries no trace: the
   engine records into one that keeps nothing, so a test attaches a
   trace that keeps every entry through the run's instrument. *)

(* Subscribes [kept] to [tr]: each entry recorded into [tr] is recorded
   into [kept] too.  An instrument's [attach], which ignores the ledger. *)
let attach kept _ledger tr =
  Dsim.Trace.subscribe tr (fun { Dsim.Trace.time; event } ->
      Dsim.Trace.record kept ~time event)

(* [run f] is [f]'s result on an instrument that keeps the run's
   entries, and the trace that kept them. *)
let run f =
  let kept = Dsim.Trace.create () in
  let r =
    f { Mmb.Instrument.none with want_trace = true; attach = attach kept }
  in
  (r, kept)

(* Replays [kept]'s entries through a live trace whose first subscriber
   is a ledger for [dual] fed from the same entries, as a run's ledger
   takes each delivery before the trace records it.  [attach] subscribes
   the consumers, after the ledger. *)
let replay ~dual kept attach =
  let tr = Dsim.Trace.create ~enabled:false () in
  let ledger = Mmb.Problem.tracker ~dual [] in
  Dsim.Trace.subscribe tr (Mmb.Problem.on_entry ledger);
  attach ledger tr;
  Dsim.Trace.iter kept (fun { Dsim.Trace.time; event } ->
      Dsim.Trace.record tr ~time event)
