type mode = Minimal | Generous

type 'msg t = {
  mac : 'msg Standard_mac.t;
  nodes : 'msg Enhanced_mac.node_fn option array;
  inbox : 'msg Message.t list array; (* being collected this round *)
  previous : 'msg Message.t list array; (* handed to automata *)
  broadcasting : bool array;
  mutable round : int;
  mutable next_env_uid : int;
}

let policy ~mode =
  let plan ctx =
    let open Mac_intf in
    let p = ctx.bc_plan in
    set_ack p ~delay:ctx.bc_fack;
    match mode with
    | Minimal ->
        (* Reliable deliveries are planned at Fack: the round-boundary
           abort always preempts them, so receptions flow through the
           watchdog. *)
        deliver_all p ctx.bc_g_neighbors ~delay:ctx.bc_fack
    | Generous ->
        (* Every G'-neighbor receives halfway to the round boundary. *)
        let early = 0.5 *. ctx.bc_fprog in
        deliver_all p ctx.bc_g_neighbors ~delay:early;
        deliver_all p ctx.bc_g'_only_neighbors ~delay:early
  in
  (* A uniform candidate: the one draw [Rng.pick] makes. *)
  let forced ctx = Dsim.Rng.int ctx.Mac_intf.fc_rng ctx.Mac_intf.fc_count in
  {
    Mac_intf.pol_name =
      (match mode with
      | Minimal -> "round-sync-minimal"
      | Generous -> "round-sync-generous");
    pol_plan = plan;
    pol_forced = forced;
    pol_reads_received = false;
  }

let create ~mac () =
  if Standard_mac.fprog mac >= Standard_mac.fack mac then
    invalid_arg "Round_sync.create: rounds need fprog < fack";
  let n = Graphs.Dual.n (Standard_mac.dual mac) in
  let t =
    {
      mac;
      nodes = Array.make n None;
      inbox = Array.make n [];
      previous = Array.make n [];
      broadcasting = Array.make n false;
      round = 0;
      next_env_uid = 0;
    }
  in
  let dual = Standard_mac.dual mac in
  for node = 0 to n - 1 do
    Standard_mac.attach mac ~node
      {
        Mac_intf.on_rcv =
          (fun ~src body ->
            let uid = t.next_env_uid in
            t.next_env_uid <- uid + 1;
            let reliable = Graphs.Dual.is_reliable dual src node in
            t.inbox.(node) <-
              Message.make ~uid ~src ~reliable body :: t.inbox.(node));
        on_ack = (fun _ -> ());
      }
  done;
  t

let set_node t ~node fn = t.nodes.(node) <- Some fn
let mac t = t.mac
let round t = t.round

let abort_in_flight t =
  Array.iteri
    (fun v live ->
      if live then begin
        Standard_mac.abort t.mac ~node:v;
        t.broadcasting.(v) <- false
      end)
    t.broadcasting

let swap_inboxes t =
  let n = Array.length t.nodes in
  for v = 0 to n - 1 do
    t.previous.(v) <- List.rev t.inbox.(v);
    t.inbox.(v) <- []
  done

(* Completing a round: abort whatever is still in flight, make this
   round's receptions visible, advance the counter. *)
let finish_round t =
  abort_in_flight t;
  swap_inboxes t;
  t.round <- t.round + 1

(* Starting a round: ask every automaton for its action.  The round number
   handed to automata counts completed rounds, matching Enhanced_mac. *)
let start_round t =
  Array.iteri
    (fun v fn_opt ->
      match fn_opt with
      | None -> ()
      | Some fn -> (
          match fn ~round:t.round ~inbox:t.previous.(v) with
          | Enhanced_mac.Listen -> ()
          | Enhanced_mac.Broadcast body ->
              t.broadcasting.(v) <- true;
              Standard_mac.bcast t.mac ~node:v body))
    t.nodes

let run_until t ~max_rounds ~stop =
  let sim = Standard_mac.sim t.mac in
  let fprog = Standard_mac.fprog t.mac in
  let start = t.round in
  if max_rounds > 0 && not (stop ()) then begin
    (* Edges are scheduled lazily so each edge's event enqueues after the
       watchdogs armed by the round's broadcasts: forced deliveries at the
       round edge land before the aborts. *)
    let rec arm () =
      ignore
        (Dsim.Sim.schedule sim ~delay:fprog (fun () ->
             finish_round t;
             if t.round - start < max_rounds && not (stop ()) then begin
               start_round t;
               arm ()
             end))
    in
    start_round t;
    arm ();
    ignore (Dsim.Sim.run sim)
  end;
  t.round - start
