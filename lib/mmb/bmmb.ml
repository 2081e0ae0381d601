(* Per-delivery relay logic: every MAC acknowledgement and delivery runs
   through here, so the module opts into the hot-path discipline checks
   (hot rules H1/H2/H4) alongside the path-scoped hot set. *)
[@@@mmb.hot]

type discipline = [ `Fifo | `Lifo ]

(* A node's [bcastq], as a ring deque of message ids: [ring.(head)] is
   sent next, and the [queued] ids follow it around the ring, whose
   capacity is a power of two (or 0 before the first push).  FIFO pushes
   at the back and LIFO at the front; both pop the front. *)
type node_state = {
  mutable ring : int array;
  mutable head : int;
  mutable queued : int;
  mutable in_flight : int; (* the message awaiting its ack, or -1 *)
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

(* Double a full ring, unwrapping it to start at 0. *)
let grow st =
  let cap = Array.length st.ring in
  let ring = Array.make (max 4 (2 * cap)) 0 in
  for i = 0 to st.queued - 1 do
    ring.(i) <- st.ring.((st.head + i) land (cap - 1))
  done;
  st.ring <- ring;
  st.head <- 0

let push t st msg =
  if st.queued = Array.length st.ring then grow st;
  let mask = Array.length st.ring - 1 in
  (match t.discipline with
  | `Fifo -> st.ring.((st.head + st.queued) land mask) <- msg
  | `Lifo ->
      st.head <- (st.head - 1) land mask;
      st.ring.(st.head) <- msg);
  st.queued <- st.queued + 1

(* The front message, removed, or -1 when the queue is empty. *)
let pop st =
  if st.queued = 0 then -1
  else begin
    let m = st.ring.(st.head) in
    st.head <- (st.head + 1) land (Array.length st.ring - 1);
    st.queued <- st.queued - 1;
    m
  end

(* Hand the queue head to the MAC if idle ("immediately, without any
   time-passage").  The in-flight message is logically still the queue
   head until its ack; we remove it eagerly and remember it, which is
   behaviorally identical. *)
let maybe_send t node =
  let st = t.states.(node) in
  if st.in_flight < 0 then begin
    let m = pop st in
    if m >= 0 then begin
      st.in_flight <- m;
      t.mac.Amac.Mac_handle.h_bcast ~node m
    end
  end

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
            { ring = [||]; head = 0; queued = 0; in_flight = -1 });
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
            if st.in_flight <> msg then
              invalid_arg "Bmmb: ack for a message not in flight";
            st.in_flight <- -1;
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
  st.queued + if st.in_flight >= 0 then 1 else 0

let received t ~node ~msg =
  if node < 0 || node >= t.n then invalid_arg "Bmmb.received: node out of range";
  Dsim.Bitset.mem t.rcvd ((msg * t.n) + node)
