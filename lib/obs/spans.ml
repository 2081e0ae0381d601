type t = {
  (* Messages, numbered by id in order of first sight; the number
     indexes the columns below.  An unknown time is [nan] (trace times
     never are). *)
  msg_number : Dsim.Int_table.map Dsim.Int_table.t;
  mutable arrive : float array; (* earliest Arrive *)
  mutable first_bcast : float array;
  mutable delivers : int array; (* distinct delivering nodes (engines dedup) *)
  mutable last_deliver : float array;
  mutable complete : float array; (* the ledger's completion *)
  (* Instances, numbered by uid in order of first Bcast: the time of the
     Bcast that opened each, [nan] once an Ack or Abort closed it. *)
  inst_number : Dsim.Int_table.map Dsim.Int_table.t;
  mutable opened : float array;
  c_arrive : Metrics.counter;
  c_deliver : Metrics.counter;
  c_bcast : Metrics.counter;
  c_rcv : Metrics.counter;
  c_ack : Metrics.counter;
  c_abort : Metrics.counter;
  c_orphan : Metrics.counter;
  c_complete : Metrics.counter;
  h_completion : Metrics.histogram;
  h_first_bcast : Metrics.histogram;
  h_deliver : Metrics.histogram;
  h_ack : Metrics.histogram;
  mutable total_delivers : int;
  last_time : float array; (* one cell, unboxed *)
}

let create ~metrics () =
  let cap = 8 in
  let t =
    {
      msg_number = Dsim.Int_table.create_map ();
      arrive = Array.make cap nan;
      first_bcast = Array.make cap nan;
      delivers = Array.make cap 0;
      last_deliver = Array.make cap nan;
      complete = Array.make cap nan;
      inst_number = Dsim.Int_table.create_map ();
      opened = Array.make cap nan;
      c_arrive = Metrics.counter metrics "events.arrive";
      c_deliver = Metrics.counter metrics "events.deliver";
      c_bcast = Metrics.counter metrics "events.bcast";
      c_rcv = Metrics.counter metrics "events.rcv";
      c_ack = Metrics.counter metrics "events.ack";
      c_abort = Metrics.counter metrics "events.abort";
      c_orphan = Metrics.counter metrics "events.orphan";
      c_complete = Metrics.counter metrics "span.msgs_complete";
      h_completion = Metrics.histogram metrics "span.completion_latency";
      h_first_bcast = Metrics.histogram metrics "span.first_bcast_delay";
      h_deliver = Metrics.histogram metrics "span.deliver_latency";
      h_ack = Metrics.histogram metrics "mac.ack_latency";
      total_delivers = 0;
      last_time = [| 0. |];
    }
  in
  Metrics.probe metrics "span.msgs_seen" (fun () ->
      float_of_int (Dsim.Int_table.length t.msg_number));
  Metrics.probe metrics "span.frontier" (fun () ->
      float_of_int t.total_delivers);
  t

(* [a] with room for twice its [len] cells, the new ones [fill]. *)
let grow a len fill =
  let b = Array.make (2 * len) fill in
  Array.blit a 0 b 0 len;
  b

(* The number of message [msg], numbering it if it is new. *)
let span t msg =
  let i = Dsim.Int_table.number t.msg_number msg in
  if i = Array.length t.arrive then begin
    t.arrive <- grow t.arrive i nan;
    t.first_bcast <- grow t.first_bcast i nan;
    t.delivers <- grow t.delivers i 0;
    t.last_deliver <- grow t.last_deliver i nan;
    t.complete <- grow t.complete i nan
  end;
  i

let open_instance t instance time =
  let i = Dsim.Int_table.number t.inst_number instance in
  if i = Array.length t.opened then t.opened <- grow t.opened i nan;
  t.opened.(i) <- time

(* The number of [instance] while it is open, else -1. *)
let open_number t instance =
  let i = Dsim.Int_table.find t.inst_number instance in
  if i >= 0 && not (Float.is_nan t.opened.(i)) then i else -1

let on_entry t ledger { Dsim.Trace.time; event } =
  if time > t.last_time.(0) then t.last_time.(0) <- time;
  match event with
  | Dsim.Trace.Arrive { msg; _ } ->
      Metrics.incr t.c_arrive;
      let i = span t msg in
      if not (t.arrive.(i) <= time) then t.arrive.(i) <- time
  | Dsim.Trace.Deliver { msg; _ } ->
      Metrics.incr t.c_deliver;
      t.total_delivers <- t.total_delivers + 1;
      let i = span t msg in
      t.delivers.(i) <- t.delivers.(i) + 1;
      t.last_deliver.(i) <- time;
      let a = t.arrive.(i) in
      if not (Float.is_nan a) then Metrics.observe t.h_deliver (time -. a);
      (* The ledger took this delivery first: the first entry that finds
         the message complete is the completing one. *)
      if Float.is_nan t.complete.(i) && Mmb.Problem.completed ledger ~msg
      then begin
        t.complete.(i) <- time;
        Metrics.incr t.c_complete;
        if not (Float.is_nan a) then Metrics.observe t.h_completion (time -. a)
      end
  | Dsim.Trace.Bcast { msg; instance; _ } ->
      Metrics.incr t.c_bcast;
      open_instance t instance time;
      let i = span t msg in
      if Float.is_nan t.first_bcast.(i) then begin
        t.first_bcast.(i) <- time;
        let a = t.arrive.(i) in
        if not (Float.is_nan a) then Metrics.observe t.h_first_bcast (time -. a)
      end
  | Dsim.Trace.Rcv _ -> Metrics.incr t.c_rcv
  | Dsim.Trace.Ack { instance; _ } ->
      Metrics.incr t.c_ack;
      let i = open_number t instance in
      if i >= 0 then begin
        let t0 = t.opened.(i) in
        t.opened.(i) <- nan;
        Metrics.observe t.h_ack (time -. t0)
      end
      else Metrics.incr t.c_orphan
  | Dsim.Trace.Abort { instance; _ } ->
      Metrics.incr t.c_abort;
      let i = open_number t instance in
      if i >= 0 then t.opened.(i) <- nan else Metrics.incr t.c_orphan

let messages_seen t = Dsim.Int_table.length t.msg_number
let messages_complete t = Metrics.value t.c_complete
let total_delivers t = t.total_delivers
let last_time t = t.last_time.(0)

let num f = Dsim.Json.Number f
let known f = if Float.is_nan f then Dsim.Json.Null else num f

let span_lines t =
  let msg = Dsim.Int_table.key t.msg_number in
  let by_id = Array.init (messages_seen t) Fun.id in
  Array.sort (fun i j -> Int.compare (msg i) (msg j)) by_id;
  Array.to_list by_id
  |> List.map (fun i ->
         Dsim.Json.Obj
           [
             ("kind", Dsim.Json.String "span");
             ("msg", num (float_of_int (msg i)));
             ("arrive", known t.arrive.(i));
             ("first_bcast", known t.first_bcast.(i));
             ("delivers", num (float_of_int t.delivers.(i)));
             ( "last_deliver",
               if t.delivers.(i) = 0 then Dsim.Json.Null
               else num t.last_deliver.(i) );
             ("complete", known t.complete.(i));
             ( "latency",
               let a = t.arrive.(i) and c = t.complete.(i) in
               if Float.is_nan a || Float.is_nan c then Dsim.Json.Null
               else num (c -. a) );
           ])
