open Amac.Mac_intf

type result = {
  time : float;
  floor : float;
  achieved : bool;
  complete : bool;
  upper : float;
}

(* Roles on network C (Dual.two_line ~d): nodes [0, d) are the A line
   (a_{s+1} = node s), nodes [d, 2d) are the B line.  m0 (payload 0) starts
   at a_1, m1 (payload 1) at b_1.  A broadcast is a "frontier" broadcast
   when it pushes its message down its own line. *)
let two_line_policy ~d =
  let plan ctx =
    let s = ctx.bc_sender in
    let on_a_line = s < d in
    let frontier = if on_a_line then ctx.bc_body = 0 else ctx.bc_body = 1 in
    if frontier then begin
      (* Stall for the full Fack; feed the opposite line's next frontier
         node a cross-edge copy early, so its progress bound is satisfied
         by a message it (by then) already has. *)
      let cross =
        if on_a_line then if s < d - 1 then Some (d + s + 1) else None
        else if s < (2 * d) - 1 then Some (s - d + 1)
        else None
      in
      set_ack ctx.bc_plan ~delay:ctx.bc_fack;
      deliver_all ctx.bc_plan ctx.bc_g_neighbors ~delay:ctx.bc_fack;
      match cross with
      | Some receiver -> deliver ctx.bc_plan ~receiver ~delay:ctx.bc_fprog
      | None -> ()
    end
    else begin
      (* Non-frontier broadcasts complete instantly: deliver to G-neighbors
         only, acknowledge with no time passing. *)
      set_ack ctx.bc_plan ~delay:0.;
      deliver_all ctx.bc_plan ctx.bc_g_neighbors ~delay:0.
    end
  in
  {
    pol_name = "two-line-adversary";
    pol_plan = plan;
    (* Waste the forced delivery: duplicates first, then unreliable-edge
       senders, then whatever remains. *)
    pol_forced = (Amac.Schedulers.adversarial ()).pol_forced;
    pol_reads_received = true;
  }

let run_two_line ~d ~fack ~fprog ?(discipline = `Fifo) ?(seed = 0) () =
  let dual = Graphs.Dual.two_line ~d in
  let assignment =
    [ (Graphs.Dual.two_line_a ~d 1, 0); (Graphs.Dual.two_line_b ~d 1, 1) ]
  in
  let res =
    Runner.run_bmmb ~dual ~fack ~fprog ~policy:(two_line_policy ~d)
      ~assignment ~seed ~discipline ()
  in
  let floor = Bounds.lower_two_line ~d ~fack in
  {
    time = res.Runner.time;
    floor;
    achieved = res.Runner.complete && res.Runner.time >= floor -. 1e-9;
    complete = res.Runner.complete;
    upper = res.Runner.upper_bound;
  }

let run_choke ~k ~fack ~fprog ?(seed = 0) () =
  let dual = Graphs.Dual.choke ~k in
  (* Leaves u_1..u_{k-1} and the hub u_k each start with one message. *)
  let assignment = List.init k (fun i -> (i, i)) in
  let res =
    Runner.run_bmmb ~dual ~fack ~fprog
      ~policy:(Amac.Schedulers.adversarial ())
      ~assignment ~seed ()
  in
  let floor = Bounds.lower_choke ~k ~fack in
  {
    time = res.Runner.time;
    floor;
    achieved = res.Runner.complete && res.Runner.time >= floor -. 1e-9;
    complete = res.Runner.complete;
    upper = res.Runner.upper_bound;
  }
