(* Runs whose entries a test reads.  A run result carries no trace: the
   engine records into one that keeps nothing, so a test attaches a
   trace that keeps every entry through the run's instrument. *)

(* Subscribes [kept] to [tr]: each entry recorded into [tr] is recorded
   into [kept] too.  An instrument's [attach]. *)
let attach kept tr =
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
