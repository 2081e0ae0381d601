type delivery = { mutable receiver : int; mutable delay : float }

type plan = {
  mutable ack_delay : float;
  mutable cells : delivery array;
  mutable len : int;
}

let create_plan () = { ack_delay = Float.nan; cells = [||]; len = 0 }

let reset plan =
  plan.ack_delay <- Float.nan;
  plan.len <- 0

let set_ack plan ~delay = plan.ack_delay <- delay

(* Cells are allocated only when the buffer grows, and kept: a delivery
   rewrites the cell at [len], storing the boxed [delay] it was given. *)
let deliver plan ~receiver ~delay =
  let len = plan.len in
  if len = Array.length plan.cells then
    plan.cells <-
      Array.init (max 8 (2 * len)) (fun i ->
          if i < len then plan.cells.(i) else { receiver = 0; delay = 0. });
  let c = plan.cells.(len) in
  c.receiver <- receiver;
  c.delay <- delay;
  plan.len <- len + 1

let deliver_all plan receivers ~delay =
  for i = 0 to Array.length receivers - 1 do
    deliver plan ~receiver:receivers.(i) ~delay
  done

type 'msg bcast_ctx = {
  bc_sender : int;
  bc_uid : int;
  bc_body : 'msg;
  bc_now : float;
  bc_g_neighbors : int array;
  bc_g'_only_neighbors : int array;
  bc_fack : float;
  bc_fprog : float;
  bc_rng : Dsim.Rng.t;
  bc_plan : plan;
}

type 'msg candidate = {
  cand_uid : int;
  cand_sender : int;
  cand_body : 'msg;
  cand_is_g_neighbor : bool;
}

type 'msg forced_ctx = {
  fc_receiver : int;
  fc_now : float;
  fc_candidates : 'msg candidate list;
  fc_has_received : 'msg -> bool;
  fc_rng : Dsim.Rng.t;
}

type 'msg policy = {
  pol_name : string;
  pol_plan : 'msg bcast_ctx -> unit;
  pol_forced : 'msg forced_ctx -> 'msg candidate;
  pol_reads_received : bool;
}

type 'msg handlers = { on_rcv : src:int -> 'msg -> unit; on_ack : 'msg -> unit }
