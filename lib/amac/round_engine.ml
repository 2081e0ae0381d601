type 'msg t = {
  set_node : node:int -> 'msg Enhanced_mac.node_fn -> unit;
  run_until : max_rounds:int -> stop:(unit -> bool) -> int;
  rounds_done : unit -> int;
  now : unit -> float;
  trace : Dsim.Trace.t option;
}

let of_enhanced mac =
  {
    set_node = Enhanced_mac.set_node mac;
    run_until = Enhanced_mac.run_until mac;
    rounds_done = (fun () -> Enhanced_mac.round mac);
    now = (fun () -> Enhanced_mac.now mac);
    trace = Enhanced_mac.trace mac;
  }

let of_round_sync rs =
  let mac = Round_sync.mac rs in
  {
    set_node = Round_sync.set_node rs;
    run_until = Round_sync.run_until rs;
    rounds_done = (fun () -> Round_sync.round rs);
    now = (fun () -> Dsim.Sim.now (Standard_mac.sim mac));
    trace = Standard_mac.trace mac;
  }

let stage e =
  let base = e.rounds_done () in
  {
    e with
    set_node =
      (fun ~node fn ->
        e.set_node ~node (fun ~round ~inbox -> fn ~round:(round - base) ~inbox));
    rounds_done = (fun () -> e.rounds_done () - base);
  }

let record e event =
  match e.trace with
  | None -> ()
  | Some tr -> Dsim.Trace.record tr ~time:(e.now ()) event
