(* Fused BMMB + MAC for one partition, struct-of-arrays throughout.

   Per owned node, indexed by local id [l]:
     - delivered set: bit [l*k + msg] of [rcvd];
     - protocol FIFO: ring [qbuf.(l*k .. l*k+k-1)] with [qhead]/[qlen];
     - MAC instance: [in_flight.(l)] (message id, -1 idle) and
       [inst_uid.(l)] (its instance id).
   Everything is allocated once in [create]; the per-event path allocates
   only the scheduled closures, so the module opts into the hot-path
   discipline checks. *)
[@@@mmb.hot]

type t = {
  sim : Dsim.Sim.t;
  dual : Graphs.Dual.t;
  dyn : Dyn.Dual.t option;
  fprog : float;
  part : int array;
  me : int;
  parts : int;
  k : int;
  rng : Dsim.Rng.t;
  trace : Dsim.Trace.t;
  tracing : bool;
  send : dst:int -> Mailbox.entry -> unit;
  local_of : int array; (* global node -> local id, -1 if not owned *)
  n_local : int;
  rcvd : Bytes.t; (* n_local * k bits *)
  qbuf : int array; (* n_local rings of k slots *)
  qhead : int array;
  qlen : int array;
  in_flight : int array;
  inst_uid : int array;
  mutable next_inst : int; (* uid = next_inst * parts + me *)
  mutable c_bcasts : int;
  mutable c_rcvs : int;
  mutable c_acks : int;
  mutable c_delivered : int;
  mutable t_last_delivery : float;
}

let bit_get bytes i =
  Char.code (Bytes.unsafe_get bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bytes i =
  let byte = i lsr 3 in
  Bytes.unsafe_set bytes byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes byte) lor (1 lsl (i land 7))))

let create ~sim ~dual ?dyn ~fprog ~part ~me ~parts ~k ~seed ~trace ~tracing
    ~send () =
  if fprog <= 0. then invalid_arg "Pdes.Mega.create: Fprog must be positive";
  if k < 1 then invalid_arg "Pdes.Mega.create: need k >= 1";
  let n = Array.length part in
  let local_of = Array.make n (-1) in
  let n_local = ref 0 in
  for v = 0 to n - 1 do
    if part.(v) = me then begin
      local_of.(v) <- !n_local;
      incr n_local
    end
  done;
  let n_local = !n_local in
  {
    sim;
    dual;
    dyn;
    fprog;
    part;
    me;
    parts;
    k;
    (* A distinct odd-multiplier stream per partition: draws depend only
       on (seed, partition), never on the domain mapping. *)
    rng = Dsim.Rng.create ~seed:(seed + (7919 * (me + 1)));
    trace;
    tracing;
    send;
    local_of;
    n_local;
    rcvd = Bytes.make (((n_local * k) + 7) / 8) '\000';
    qbuf = Array.make (n_local * k) 0;
    qhead = Array.make n_local 0;
    qlen = Array.make n_local 0;
    in_flight = Array.make n_local (-1);
    inst_uid = Array.make n_local (-1);
    next_inst = 0;
    c_bcasts = 0;
    c_rcvs = 0;
    c_acks = 0;
    c_delivered = 0;
    t_last_delivery = 0.;
  }

let record t ~time event =
  if t.tracing then Dsim.Trace.record t.trace ~time event

let view_at t ~time =
  match t.dyn with None -> t.dual | Some d -> Dyn.Dual.view d ~time

(* bcast -> (delivery batch, ack) -> maybe_send -> bcast ... *)
let rec maybe_send t ~node ~l ~time =
  if t.in_flight.(l) < 0 && t.qlen.(l) > 0 then begin
    let base = l * t.k in
    let msg = t.qbuf.(base + t.qhead.(l)) in
    t.qhead.(l) <- (t.qhead.(l) + 1) mod t.k;
    t.qlen.(l) <- t.qlen.(l) - 1;
    t.in_flight.(l) <- msg;
    bcast t ~node ~l ~msg ~time
  end

and bcast t ~node ~l ~msg ~time =
  let uid = (t.next_inst * t.parts) + t.me in
  t.next_inst <- t.next_inst + 1;
  t.inst_uid.(l) <- uid;
  t.c_bcasts <- t.c_bcasts + 1;
  if t.tracing then
    record t ~time (Dsim.Trace.Bcast { node; msg; instance = uid });
  let nbrs =
    Graphs.Graph.neighbors (Graphs.Dual.unreliable (view_at t ~time)) node
  in
  (* One uniform draw covers every owned neighbor: any delivery time in
     [0, Fack] is legal, a single draw keeps the RNG stream length a
     function of the bcast count alone (degree-independent), and one
     batch closure per instance keeps the heap at O(active instances),
     not O(active instances * degree). *)
  let local_delay = Dsim.Rng.float t.rng t.fprog in
  let owned = ref false in
  for i = 0 to Array.length nbrs - 1 do
    let j = nbrs.(i) in
    let dst = t.part.(j) in
    if dst = t.me then owned := true
    else
      t.send ~dst { Mailbox.time = time +. t.fprog; node = j; msg; inst = uid }
  done;
  if !owned then
    ignore
      (Dsim.Sim.schedule_at t.sim ~time:(time +. local_delay) (fun () ->
           deliver_batch t ~nbrs ~msg ~uid));
  ignore
    (Dsim.Sim.schedule_at t.sim ~time:(time +. t.fprog) (fun () ->
         ack t ~node ~l))

and deliver_batch t ~nbrs ~msg ~uid =
  let time = Dsim.Sim.now t.sim in
  for i = 0 to Array.length nbrs - 1 do
    let j = nbrs.(i) in
    if t.part.(j) = t.me then begin
      t.c_rcvs <- t.c_rcvs + 1;
      if t.tracing then
        record t ~time (Dsim.Trace.Rcv { node = j; msg; instance = uid });
      accept t ~node:j ~msg ~time
    end
  done

and accept t ~node ~msg ~time =
  let l = t.local_of.(node) in
  let i = (l * t.k) + msg in
  if not (bit_get t.rcvd i) then begin
    bit_set t.rcvd i;
    t.c_delivered <- t.c_delivered + 1;
    if time > t.t_last_delivery then t.t_last_delivery <- time;
    if t.tracing then record t ~time (Dsim.Trace.Deliver { node; msg });
    let base = l * t.k in
    t.qbuf.(base + ((t.qhead.(l) + t.qlen.(l)) mod t.k)) <- msg;
    t.qlen.(l) <- t.qlen.(l) + 1;
    maybe_send t ~node ~l ~time
  end

and ack t ~node ~l =
  let time = Dsim.Sim.now t.sim in
  let msg = t.in_flight.(l) in
  t.c_acks <- t.c_acks + 1;
  if t.tracing then
    record t ~time (Dsim.Trace.Ack { node; msg; instance = t.inst_uid.(l) });
  t.in_flight.(l) <- -1;
  maybe_send t ~node ~l ~time

let schedule_arrival t ~node ~msg =
  if t.local_of.(node) < 0 then
    invalid_arg "Pdes.Mega.schedule_arrival: node not owned by this partition";
  ignore
    (Dsim.Sim.schedule_at t.sim ~time:0. (fun () ->
         record t ~time:0. (Dsim.Trace.Arrive { node; msg });
         accept t ~node ~msg ~time:0.))

let receive_remote t (entry : Mailbox.entry) =
  ignore
    (Dsim.Sim.schedule_at t.sim ~time:entry.time (fun () ->
         let time = Dsim.Sim.now t.sim in
         t.c_rcvs <- t.c_rcvs + 1;
         if t.tracing then
           record t ~time
             (Dsim.Trace.Rcv
                { node = entry.node; msg = entry.msg; instance = entry.inst });
         accept t ~node:entry.node ~msg:entry.msg ~time))

let bcasts t = t.c_bcasts
let rcvs t = t.c_rcvs
let acks t = t.c_acks
let delivered t = t.c_delivered
let n_local t = t.n_local
let last_delivery t = t.t_last_delivery
