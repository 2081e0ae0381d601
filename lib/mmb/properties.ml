type t = {
  ledger : Problem.tracker; (* fed only by the audited entries *)
  rcvd : Dsim.Bitset.t; (* nodes after their first MAC reception *)
  mutable findings : string list; (* reversed *)
}

let create ~dual =
  {
    ledger = Problem.tracker ~dual [];
    rcvd = Dsim.Bitset.create ~width:(Graphs.Dual.n dual);
    findings = [];
  }

let add t fmt = Printf.ksprintf (fun s -> t.findings <- s :: t.findings) fmt

let on_entry t { Dsim.Trace.time; event } =
  match event with
  | Dsim.Trace.Arrive { node; msg } ->
      if not (Problem.arrive t.ledger ~node ~msg ~time) then
        add t "message m%d arrived twice (MMB-well-formedness)" msg
  | Dsim.Trace.Rcv { node; _ } -> Dsim.Bitset.add t.rcvd node
  | Dsim.Trace.Deliver { node; msg } ->
      Problem.expect t.ledger ~msg;
      if not (Problem.deliver t.ledger ~node ~msg ~time) then
        add t "node %d delivered m%d twice (condition (b))" node msg;
      let origin = Problem.origin t.ledger ~msg in
      if origin < 0 then
        add t
          "node %d delivered m%d before (or without) its arrival (condition \
           (b))"
          node msg
      else if node <> origin && not (Dsim.Bitset.mem t.rcvd node) then
        add t "node %d delivered m%d without any prior MAC reception" node msg
  | Dsim.Trace.Bcast _ | Dsim.Trace.Ack _ | Dsim.Trace.Abort _ -> ()

let finish t =
  Problem.iter_missing t.ledger (fun ~node ~msg ->
      add t "node %d never delivered m%d (condition (a))" node msg);
  List.rev t.findings

let check ~dual trace =
  let t = create ~dual in
  Dsim.Trace.iter trace (on_entry t);
  finish t
