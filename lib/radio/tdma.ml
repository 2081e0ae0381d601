exception Busy of int

type 'msg in_flight = { fl_uid : int; fl_body : 'msg; mutable fl_sent : bool }

type 'msg t = {
  dual : Graphs.Dual.t;
  slot_len : float;
  trace : Dsim.Trace.t option;
  radio : 'msg Amac.Message.t Slotted.t;
  handlers : 'msg Amac.Mac_intf.handlers option array;
  flying : 'msg in_flight option array;
  seen : Dsim.Bitset.t; (* uid * n + v: v has received instance uid *)
  mutable next_uid : int;
}

let record t event =
  match t.trace with
  | None -> ()
  | Some tr -> Dsim.Trace.record tr ~time:(Slotted.now t.radio) event

let bcast t ~node body =
  (match t.handlers.(node) with
  | Some _ -> ()
  | None -> invalid_arg "Tdma: node has no attached automaton");
  if t.flying.(node) <> None then raise (Busy node);
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  t.flying.(node) <- Some { fl_uid = uid; fl_body = body; fl_sent = false };
  record t (Dsim.Trace.Bcast { node; msg = uid; instance = uid })

let node_fn t v ~slot ~received =
  let n = Graphs.Dual.n t.dual in
  (* Deliver receptions (once per instance per receiver). *)
  List.iter
    (fun r ->
      let env = r.Slotted.rx_pkt in
      let uid = env.Amac.Message.uid in
      let key = (uid * n) + v in
      if not (Dsim.Bitset.test_and_add t.seen key) then begin
        record t (Dsim.Trace.Rcv { node = v; msg = uid; instance = uid });
        match t.handlers.(v) with
        | Some h ->
            h.Amac.Mac_intf.on_rcv ~src:env.Amac.Message.src
              env.Amac.Message.body
        | None -> ()
      end)
    received;
  (* A packet transmitted in our previous owned slot is done: TDMA is
     collision-free, so every reliable neighbor has it. *)
  (match t.flying.(v) with
  | Some fl when fl.fl_sent ->
      t.flying.(v) <- None;
      record t (Dsim.Trace.Ack { node = v; msg = fl.fl_uid; instance = fl.fl_uid });
      (match t.handlers.(v) with
      | Some h -> h.Amac.Mac_intf.on_ack fl.fl_body
      | None -> ())
  | _ -> ());
  (* Transmit in our owned slot. *)
  match t.flying.(v) with
  | Some fl when slot mod n = v ->
      fl.fl_sent <- true;
      Slotted.Transmit
        (Amac.Message.make ~uid:fl.fl_uid ~src:v ~reliable:true fl.fl_body)
  | _ -> Slotted.Idle

let create ~dual ~rng ?(slot_len = 1.) ?oracle ?trace () =
  let oracle =
    match oracle with
    | Some o -> o
    | None -> Slotted.oracle_bernoulli rng ~p:0.5
  in
  let radio = Slotted.create ~dual ~slot_len ~oracle () in
  let n = Graphs.Dual.n dual in
  let t =
    {
      dual;
      slot_len;
      trace;
      radio;
      handlers = Array.make n None;
      flying = Array.make n None;
      seen = Dsim.Bitset.create ~width:0;
      next_uid = 0;
    }
  in
  for v = 0 to n - 1 do
    Slotted.set_node radio ~node:v (fun ~slot ~received ->
        node_fn t v ~slot ~received)
  done;
  t

let handle t =
  {
    Amac.Mac_handle.h_n = Graphs.Dual.n t.dual;
    h_attach =
      (fun ~node handlers ->
        match t.handlers.(node) with
        | Some _ -> invalid_arg "Tdma: node already attached"
        | None -> t.handlers.(node) <- Some handlers);
    h_bcast = (fun ~node body -> bcast t ~node body);
    h_busy = (fun ~node -> t.flying.(node) <> None);
    h_now = (fun () -> Slotted.now t.radio);
    h_trace = t.trace;
  }

let run t ~max_slots ~stop = Slotted.run_until t.radio ~max_slots ~stop

let slot t = Slotted.slot t.radio
let frame_len t = Graphs.Dual.n t.dual
let transmissions t = Slotted.transmissions t.radio
