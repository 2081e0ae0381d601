(* Per-delivery relay logic: every MAC acknowledgement and delivery runs
   through here, so the module opts into the hot-path discipline checks
   (hot rules H1/H2/H4) alongside the path-scoped hot set. *)
[@@@mmb.hot]

type discipline = [ `Fifo | `Lifo ]

type node_state = {
  (* [bcastq] as a double-ended structure: [front] holds messages to send
     next (in order), [back] holds newly enqueued ones in reverse. *)
  mutable front : int list;
  mutable back : int list;
  mutable queued : int;
  mutable in_flight : int option;
}

type t = {
  mac : int Amac.Mac_handle.t;
  on_deliver : node:int -> msg:int -> time:float -> unit;
  discipline : discipline;
  relay : int -> bool;
  states : node_state array;
  (* The received sets of all nodes, as one bitset: id [msg * n + node]
     says that [node] has [msg]. *)
  n : int;
  rcvd : Dsim.Bitset.t;
}

let now t = t.mac.Amac.Mac_handle.h_now ()
let record_trace t event = Amac.Mac_handle.record t.mac event

(* Call-site guard for [record_trace]: its argument is built before the
   call checks for a trace, so an unguarded call allocates the event
   record even with tracing off. *)
let tracing t = Option.is_some t.mac.Amac.Mac_handle.h_trace

let push t st msg =
  (match t.discipline with
  | `Fifo -> st.back <- msg :: st.back
  | `Lifo -> st.front <- msg :: st.front);
  st.queued <- st.queued + 1

let pop st =
  let refill () =
    match List.rev st.back with
    | [] -> None
    | m :: rest ->
        st.front <- m :: rest;
        st.back <- [];
        Some m
  in
  let head = match st.front with m :: _ -> Some m | [] -> refill () in
  match head with
  | None -> None
  | Some m ->
      (match st.front with
      | _ :: rest -> st.front <- rest
      | [] -> assert false);
      st.queued <- st.queued - 1;
      Some m

(* Hand the queue head to the MAC if idle ("immediately, without any
   time-passage").  The in-flight message is logically still the queue
   head until its ack; we remove it eagerly and remember it, which is
   behaviorally identical. *)
let maybe_send t node =
  let st = t.states.(node) in
  match st.in_flight with
  | Some _ -> ()
  | None -> (
      match pop st with
      | None -> ()
      | Some m ->
          st.in_flight <- Some m;
          t.mac.Amac.Mac_handle.h_bcast ~node m)

(* The delivery reaches [on_deliver] (the run's ledger) before the trace
   records it, so the trace's subscribers find it counted. *)
let get t node msg ~from_env =
  let st = t.states.(node) in
  if not (Dsim.Bitset.test_and_add t.rcvd ((msg * t.n) + node)) then begin
    t.on_deliver ~node ~msg ~time:(now t);
    if tracing t then record_trace t (Dsim.Trace.Deliver { node; msg });
    (* Own arrivals are always broadcast; received messages only by relay
       nodes (backbone flooding). *)
    if from_env || t.relay node then begin
      push t st msg;
      maybe_send t node
    end
  end
  else if from_env then
    invalid_arg "Bmmb.arrive: message already known (non-unique arrival?)"

let install ?(discipline = `Fifo) ?(relay = fun _ -> true) ~mac ~on_deliver
    () =
  let n = mac.Amac.Mac_handle.h_n in
  let t =
    {
      mac;
      on_deliver;
      discipline;
      relay;
      states =
        Array.init n (fun _ ->
            { front = []; back = []; queued = 0; in_flight = None });
      n;
      rcvd = Dsim.Bitset.create ~width:0;
    }
  in
  for node = 0 to n - 1 do
    mac.Amac.Mac_handle.h_attach ~node
      {
        Amac.Mac_intf.on_rcv =
          (fun ~src:_ msg -> get t node msg ~from_env:false);
        on_ack =
          (fun msg ->
            let st = t.states.(node) in
            (match st.in_flight with
            | Some m when m = msg -> st.in_flight <- None
            | _ -> invalid_arg "Bmmb: ack for a message not in flight");
            maybe_send t node);
      }
  done;
  t

let arrive t ~node ~msg =
  if msg < 0 then invalid_arg "Bmmb.arrive: message ids must be >= 0";
  if tracing t then record_trace t (Dsim.Trace.Arrive { node; msg });
  get t node msg ~from_env:true

let queue_length t ~node =
  let st = t.states.(node) in
  st.queued + match st.in_flight with Some _ -> 1 | None -> 0

let received t ~node ~msg =
  if node < 0 || node >= t.n then invalid_arg "Bmmb.received: node out of range";
  Dsim.Bitset.mem t.rcvd ((msg * t.n) + node)
