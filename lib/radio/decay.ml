type params = { phase_slots : int; phases_per_ack : int }

exception Busy of int

let ceil_log2 n =
  let rec go acc pow = if pow >= n then acc else go (acc + 1) (2 * pow) in
  go 0 1

let default_params ~n ~max_contention =
  let m = max 2 max_contention in
  {
    phase_slots = ceil_log2 m + 2;
    phases_per_ack =
      max 8
        (int_of_float
           (ceil (8.2 *. float_of_int m *. log (float_of_int (max 2 n) +. 1.))));
  }

module Over (R : Radio_intf.RADIO) = struct
  type 'msg in_flight = { fl_uid : int; fl_body : 'msg; fl_start : int }

  type 'msg t = {
    dual : Graphs.Dual.t;
    params : params;
    rng : Dsim.Rng.t;
    trace : Dsim.Trace.t option;
    radio : 'msg Amac.Message.t R.t;
    handlers : 'msg Amac.Mac_intf.handlers option array;
    flying : 'msg in_flight option array;
    seen : Dsim.Bitset.t; (* uid * n + v: v has received instance uid *)
    mutable next_uid : int;
    mutable n_incomplete_acks : int;
  }

  let record t event =
    match t.trace with
    | None -> ()
    | Some tr -> Dsim.Trace.record tr ~time:(R.now t.radio) event

  let bcast t ~node body =
    (match t.handlers.(node) with
    | Some _ -> ()
    | None -> invalid_arg "Decay: node has no attached automaton");
    if t.flying.(node) <> None then raise (Busy node);
    let uid = t.next_uid in
    t.next_uid <- uid + 1;
    t.flying.(node) <-
      Some { fl_uid = uid; fl_body = body; fl_start = R.slot t.radio };
    record t (Dsim.Trace.Bcast { node; msg = uid; instance = uid })

  let ack t node fl =
    let g = Graphs.Dual.reliable t.dual in
    let seen j = Dsim.Bitset.mem t.seen ((fl.fl_uid * Graphs.Graph.n g) + j) in
    let missed =
      Array.exists (fun j -> not (seen j)) (Graphs.Graph.neighbors g node)
    in
    if missed then t.n_incomplete_acks <- t.n_incomplete_acks + 1;
    t.flying.(node) <- None;
    record t (Dsim.Trace.Ack { node; msg = fl.fl_uid; instance = fl.fl_uid });
    match t.handlers.(node) with
    | Some h -> h.Amac.Mac_intf.on_ack fl.fl_body
    | None -> ()

  let node_fn t v ~slot ~received =
    (* 1. Hand new packets up (once per instance per receiver). *)
    List.iter
      (fun r ->
        let env = r.Slotted.rx_pkt in
        let uid = env.Amac.Message.uid in
        let key = (uid * Graphs.Dual.n t.dual) + v in
        if not (Dsim.Bitset.test_and_add t.seen key) then begin
          record t (Dsim.Trace.Rcv { node = v; msg = uid; instance = uid });
          match t.handlers.(v) with
          | Some h ->
              h.Amac.Mac_intf.on_rcv ~src:env.Amac.Message.src
                env.Amac.Message.body
          | None -> ()
        end)
      received;
    (* 2. Ack a finished back-off (the handler may immediately
       re-broadcast, refreshing [flying] before the decision below). *)
    (match t.flying.(v) with
    | Some fl
      when slot - fl.fl_start >= t.params.phase_slots * t.params.phases_per_ack
      ->
        ack t v fl
    | _ -> ());
    (* 3. Decay transmission decision. *)
    match t.flying.(v) with
    | None -> Slotted.Idle
    | Some fl ->
        let s = (slot - fl.fl_start) mod t.params.phase_slots in
        let p = 1. /. float_of_int (1 lsl s) in
        if Dsim.Rng.bernoulli t.rng ~p then
          Slotted.Transmit
            (Amac.Message.make ~uid:fl.fl_uid ~src:v ~reliable:true fl.fl_body)
        else Slotted.Idle

  let create ~radio ~dual ~params ~rng ?trace () =
    let n = Graphs.Dual.n dual in
    let t =
      {
        dual;
        params;
        rng;
        trace;
        radio;
        handlers = Array.make n None;
        flying = Array.make n None;
        seen = Dsim.Bitset.create ~width:0;
        next_uid = 0;
        n_incomplete_acks = 0;
      }
    in
    for v = 0 to n - 1 do
      R.set_node radio ~node:v (fun ~slot ~received ->
          node_fn t v ~slot ~received)
    done;
    t

  let handle t =
    {
      Amac.Mac_handle.h_n = Graphs.Dual.n t.dual;
      h_attach =
        (fun ~node handlers ->
          match t.handlers.(node) with
          | Some _ -> invalid_arg "Decay: node already attached"
          | None -> t.handlers.(node) <- Some handlers);
      h_bcast = (fun ~node body -> bcast t ~node body);
      h_busy = (fun ~node -> t.flying.(node) <> None);
      h_now = (fun () -> R.now t.radio);
      h_trace = t.trace;
    }

  let run t ~max_slots ~stop = R.run_until t.radio ~max_slots ~stop
  let slot t = R.slot t.radio

  let nominal_fack t =
    (* The ack delay in slots; multiply by the radio's slot length through
       [R.now] conventions (slot_len = now/slot when slots have run). *)
    float_of_int (t.params.phase_slots * t.params.phases_per_ack)

  let transmissions t = R.transmissions t.radio
  let incomplete_acks t = t.n_incomplete_acks
end

module Over_slotted = Over (Slotted)

type 'msg t = {
  core : 'msg Over_slotted.t;
  sradio : 'msg Amac.Message.t Slotted.t;
  slot_len : float;
}

let create ~dual ~params ~rng ?(slot_len = 1.) ?oracle ?trace () =
  let oracle =
    match oracle with
    | Some o -> o
    | None -> Slotted.oracle_bernoulli rng ~p:0.5
  in
  let sradio = Slotted.create ~dual ~slot_len ~oracle () in
  let core = Over_slotted.create ~radio:sradio ~dual ~params ~rng ?trace () in
  { core; sradio; slot_len }

let handle t = Over_slotted.handle t.core
let run t ~max_slots ~stop = Over_slotted.run t.core ~max_slots ~stop
let slot t = Over_slotted.slot t.core
let nominal_fack t = Over_slotted.nominal_fack t.core *. t.slot_len
let transmissions t = Over_slotted.transmissions t.core
let collisions t = Slotted.collisions t.sradio
let incomplete_acks t = Over_slotted.incomplete_acks t.core

type star_contention = {
  first_reception : int option;
  slowest : int;
  implemented_fack : float;
  transmissions : int;
  collisions : int;
}

let star_contention ~m ~seed ~max_slots =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.star (m + 1)) in
  let rng = Dsim.Rng.create ~seed in
  let params = default_params ~n:(m + 1) ~max_contention:m in
  let mac = create ~dual ~params ~rng () in
  let h = handle mac in
  (* [heard.(v)]: the slot at which the hub first held leaf v's message. *)
  let heard = Array.make (m + 1) (-1) and held = ref 0 in
  let first_reception = ref None in
  h.Amac.Mac_handle.h_attach ~node:0
    {
      Amac.Mac_intf.on_rcv =
        (fun ~src:_ v ->
          if Option.is_none !first_reception then
            first_reception := Some (slot mac);
          if heard.(v) < 0 then begin
            heard.(v) <- slot mac;
            incr held
          end);
      on_ack = (fun _ -> ());
    };
  for v = 1 to m do
    h.Amac.Mac_handle.h_attach ~node:v
      { Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ()); on_ack = (fun _ -> ()) }
  done;
  for v = 1 to m do
    h.Amac.Mac_handle.h_bcast ~node:v v
  done;
  ignore (run mac ~max_slots ~stop:(fun () -> !held = m));
  {
    first_reception = !first_reception;
    slowest = Array.fold_left max 0 heard;
    implemented_fack = nominal_fack mac;
    transmissions = transmissions mac;
    collisions = collisions mac;
  }
