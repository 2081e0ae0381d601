(* Fused BMMB + MAC for one partition, struct-of-arrays throughout.

   Per-node state lives in arrays shared by every partition and indexed
   by global node id ([shared]); a partition reads and writes only the
   entries of the nodes it owns, so domains running different partitions
   never touch the same entry (the delivered set gives each node whole
   bytes for that reason).  Per node [v]:
     - delivered set: bit [msg] of bytes [v*stride .. v*stride+stride-1]
       of [rcvd];
     - protocol FIFO: ring [qbuf.(v*k .. v*k+k-1)] with [qhead]/[qlen];
     - MAC instance: [in_flight.(v)] (message id, -1 idle),
       [inst_uid.(v)] (its instance id) and [rows.(v)] (the G' row it
       was broadcast over).
   Everything is allocated once, before the run.  A bcast's delivery
   batch and its ack are events of two handlers registered once per
   partition and posted with the sender's node id: the handlers find the
   message, instance and row in the arrays above, so the per-event path
   allocates no closure, and the module opts into the hot-path
   discipline checks. *)
[@@@mmb.hot]

type shared = {
  part : int array; (* node -> owning partition: the one owner index *)
  k : int;
  stride : int; (* bytes of [rcvd] per node *)
  component : int array; (* node -> its G-component *)
  origin_component : int array; (* message id -> its origin's, or -1 *)
  rcvd : Bytes.t;
  qbuf : int array; (* n rings of k slots *)
  qhead : int array;
  qlen : int array;
  in_flight : int array;
  inst_uid : int array;
  rows : int array array;
}

let shared ~part ~k ~component ~origin_component =
  if k < 1 then invalid_arg "Pdes.Mega.shared: need k >= 1";
  let n = Array.length part in
  let stride = (k + 7) / 8 in
  {
    part;
    k;
    stride;
    component;
    origin_component;
    rcvd = Bytes.make (n * stride) '\000';
    qbuf = Array.make (n * k) 0;
    qhead = Array.make n 0;
    qlen = Array.make n 0;
    in_flight = Array.make n (-1);
    inst_uid = Array.make n (-1);
    rows = Array.make n [||];
  }

type t = {
  sim : Dsim.Sim.t;
  dual : Graphs.Dual.t;
  dyn : Dyn.Dual.t option;
  fprog : float;
  s : shared;
  me : int;
  parts : int;
  rng : Dsim.Rng.t;
  trace : Dsim.Trace.t;
  tracing : bool;
  send : dst:int -> Mailbox.entry -> unit;
  (* [| deliver batch; ack |]: registered right after the record is
     built, since their functions close over it. *)
  mutable handlers : Dsim.Sim.handler array;
  mutable next_inst : int; (* uid = next_inst * parts + me *)
  mutable c_bcasts : int;
  mutable c_rcvs : int;
  mutable c_acks : int;
  mutable c_delivered : int;
  mutable c_required : int;
  last_required : float array; (* [| time of the latest required delivery |] *)
  (* [| the local batch's delay, drawn per bcast; fprog |]: the cells
     the two handlers' events are posted from. *)
  delays : float array;
}

(* Bit [msg] of [node]'s bytes in the delivered set: tested and set in
   one step, so a fresh delivery reads the byte once. *)
let first_delivery s ~node ~msg =
  let byte = (node * s.stride) + (msg lsr 3) and bit = 1 lsl (msg land 7) in
  let b = Char.code (Bytes.unsafe_get s.rcvd byte) in
  if b land bit <> 0 then false
  else begin
    Bytes.unsafe_set s.rcvd byte (Char.unsafe_chr (b lor bit));
    true
  end

let record t event =
  Dsim.Trace.record t.trace ~time:(Dsim.Sim.now t.sim) event

let current_dual t =
  match t.dyn with
  | None -> t.dual
  | Some d -> Dyn.Dual.view d ~time:(Dsim.Sim.now t.sim)

(* bcast -> (delivery batch, ack) -> maybe_send -> bcast ... *)
let rec maybe_send t node =
  let s = t.s in
  if s.in_flight.(node) < 0 && s.qlen.(node) > 0 then begin
    let msg = s.qbuf.((node * s.k) + s.qhead.(node)) in
    s.qhead.(node) <- (s.qhead.(node) + 1) mod s.k;
    s.qlen.(node) <- s.qlen.(node) - 1;
    s.in_flight.(node) <- msg;
    bcast t ~node ~msg
  end

and bcast t ~node ~msg =
  let s = t.s in
  let uid = (t.next_inst * t.parts) + t.me in
  t.next_inst <- t.next_inst + 1;
  s.inst_uid.(node) <- uid;
  t.c_bcasts <- t.c_bcasts + 1;
  if t.tracing then record t (Dsim.Trace.Bcast { node; msg; instance = uid });
  let nbrs =
    Graphs.Graph.neighbors (Graphs.Dual.unreliable (current_dual t)) node
  in
  s.rows.(node) <- nbrs;
  (* One uniform draw covers every owned neighbor: any delivery time in
     [0, Fack] is legal, a single draw keeps the RNG stream length a
     function of the bcast count alone (degree-independent), and one
     batch event per instance keeps the heap at O(active instances),
     not O(active instances * degree). *)
  t.delays.(0) <- t.fprog;
  Dsim.Rng.float_cell t.rng t.delays 0;
  let owned = ref false in
  for i = 0 to Array.length nbrs - 1 do
    let j = nbrs.(i) in
    let dst = s.part.(j) in
    if dst = t.me then owned := true
    else
      t.send ~dst
        { Mailbox.time = Dsim.Sim.now t.sim +. t.fprog; node = j; msg; inst = uid }
  done;
  if !owned then
    ignore (Dsim.Sim.post t.sim ~delays:t.delays ~at:0 t.handlers.(0) node);
  ignore (Dsim.Sim.post t.sim ~delays:t.delays ~at:1 t.handlers.(1) node)

(* The batch of [sender]'s in-flight instance.  It fires strictly
   before the instance's ack (or at the same time, scheduled first), so
   [in_flight], [inst_uid] and [rows] still describe that instance. *)
and deliver_batch t sender =
  let s = t.s in
  let nbrs = s.rows.(sender)
  and msg = s.in_flight.(sender)
  and uid = s.inst_uid.(sender) in
  for i = 0 to Array.length nbrs - 1 do
    let j = nbrs.(i) in
    if s.part.(j) = t.me then begin
      t.c_rcvs <- t.c_rcvs + 1;
      if t.tracing then
        record t (Dsim.Trace.Rcv { node = j; msg; instance = uid });
      accept t ~node:j ~msg
    end
  done

and accept t ~node ~msg =
  let s = t.s in
  if first_delivery s ~node ~msg then begin
    t.c_delivered <- t.c_delivered + 1;
    (* Events run in time order, so the latest required delivery is the
       current one. *)
    if s.component.(node) = s.origin_component.(msg) then begin
      t.c_required <- t.c_required + 1;
      t.last_required.(0) <- Dsim.Sim.now t.sim
    end;
    if t.tracing then record t (Dsim.Trace.Deliver { node; msg });
    s.qbuf.((node * s.k) + ((s.qhead.(node) + s.qlen.(node)) mod s.k)) <- msg;
    s.qlen.(node) <- s.qlen.(node) + 1;
    maybe_send t node
  end

and ack t node =
  let s = t.s in
  let msg = s.in_flight.(node) in
  t.c_acks <- t.c_acks + 1;
  if t.tracing then
    record t (Dsim.Trace.Ack { node; msg; instance = s.inst_uid.(node) });
  s.in_flight.(node) <- -1;
  maybe_send t node

let create ~sim ~dual ?dyn ~fprog ~shared ~me ~parts ~seed ~trace ~tracing
    ~send () =
  if fprog <= 0. then invalid_arg "Pdes.Mega.create: Fprog must be positive";
  let t =
    {
      sim;
      dual;
      dyn;
      fprog;
      s = shared;
      me;
      parts;
      (* A distinct odd-multiplier stream per partition: draws depend
         only on (seed, partition), never on the domain mapping. *)
      rng = Dsim.Rng.create ~seed:(seed + (7919 * (me + 1)));
      trace;
      tracing;
      send;
      handlers = [||];
      next_inst = 0;
      c_bcasts = 0;
      c_rcvs = 0;
      c_acks = 0;
      c_delivered = 0;
      c_required = 0;
      last_required = [| 0. |];
      delays = [| 0.; fprog |];
    }
  in
  t.handlers <-
    [|
      Dsim.Sim.register sim (fun node -> deliver_batch t node);
      Dsim.Sim.register sim (fun node -> ack t node);
    |];
  t

let schedule_arrival t ~node ~msg =
  if t.s.part.(node) <> t.me then
    invalid_arg "Pdes.Mega.schedule_arrival: node not owned by this partition";
  ignore
    (Dsim.Sim.schedule_at t.sim ~time:0. (fun () ->
         if t.tracing then record t (Dsim.Trace.Arrive { node; msg });
         accept t ~node ~msg))

let receive_remote t (entry : Mailbox.entry) =
  ignore
    (Dsim.Sim.schedule_at t.sim ~time:entry.time (fun () ->
         t.c_rcvs <- t.c_rcvs + 1;
         if t.tracing then
           record t
             (Dsim.Trace.Rcv
                { node = entry.node; msg = entry.msg; instance = entry.inst });
         accept t ~node:entry.node ~msg:entry.msg))

let bcasts t = t.c_bcasts
let rcvs t = t.c_rcvs
let acks t = t.c_acks
let delivered t = t.c_delivered
let required_delivered t = t.c_required
let last_required_delivery t = t.last_required.(0)
