type t = {
  want_trace : bool;
  attach : Problem.tracker -> Dsim.Trace.t -> unit;
  checker : Amac.Compliance.t option;
  wire_sim : Dsim.Sim.t -> unit;
  finish : allow_open:bool -> unit;
  note_sim : Dsim.Sim.t -> unit;
  note_mac : bcasts:int -> rcvs:int -> acks:int -> forced:int -> unit;
}

let none =
  {
    want_trace = false;
    attach = (fun _ _ -> ());
    checker = None;
    wire_sim = (fun _ -> ());
    finish = (fun ~allow_open:_ -> ());
    note_sim = (fun _ -> ());
    note_mac = (fun ~bcasts:_ ~rcvs:_ ~acks:_ ~forced:_ -> ());
  }
