type plan = {
  ack : float array;
  mutable receivers : int array;
  mutable delays : float array;
  mutable len : int;
}

let create_plan () =
  { ack = [| Float.nan |]; receivers = [||]; delays = [||]; len = 0 }

let reset plan =
  plan.ack.(0) <- Float.nan;
  plan.len <- 0

let set_ack plan ~delay = plan.ack.(0) <- delay

(* Double the full columns.  The deliveries write their cells
   themselves rather than call a shared append: a second call level per
   delivery showed on a broadcast-heavy workload. *)
let grow plan =
  let len = plan.len in
  let cap = max 8 (2 * len) in
  let receivers = Array.make cap 0 and delays = Array.make cap 0. in
  Array.blit plan.receivers 0 receivers 0 len;
  Array.blit plan.delays 0 delays 0 len;
  plan.receivers <- receivers;
  plan.delays <- delays

let deliver plan ~receiver ~delay =
  let i = plan.len in
  if i = Array.length plan.receivers then grow plan;
  plan.receivers.(i) <- receiver;
  plan.delays.(i) <- delay;
  plan.len <- i + 1

let deliver_all plan receivers ~delay =
  for i = 0 to Array.length receivers - 1 do
    deliver plan ~receiver:receivers.(i) ~delay
  done

(* The draw's bound is the ack, copied into the delivery's cell, which
   the draw then overwrites. *)
let deliver_uniform plan rng ~receiver =
  let i = plan.len in
  if i = Array.length plan.receivers then grow plan;
  plan.receivers.(i) <- receiver;
  plan.delays.(i) <- plan.ack.(0);
  plan.len <- i + 1;
  Dsim.Rng.float_cell rng plan.delays i

type 'msg bcast_ctx = {
  mutable bc_sender : int;
  mutable bc_body : 'msg;
  mutable bc_g_neighbors : int array;
  mutable bc_g'_only_neighbors : int array;
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
  mutable fc_count : int;
  mutable fc_bodies : 'msg array;
  mutable fc_is_g_neighbor : bool array;
  fc_has_received : 'msg -> bool;
  fc_rng : Dsim.Rng.t;
}

type 'msg policy = {
  pol_name : string;
  pol_plan : 'msg bcast_ctx -> unit;
  pol_forced : 'msg forced_ctx -> int;
  pol_reads_received : bool;
}

type 'msg handlers = { on_rcv : src:int -> 'msg -> unit; on_ack : 'msg -> unit }
