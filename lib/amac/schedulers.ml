open Mac_intf

let eager ?(latency_frac = 0.1) () =
  let plan ctx =
    let p = ctx.bc_plan in
    set_ack p ~delay:(latency_frac *. ctx.bc_fprog);
    (* Every delivery at the ack.  [p.ack_delay] is the float [set_ack]
       was passed, already boxed: a float let would be boxed again at
       each call. *)
    deliver_all p ctx.bc_g_neighbors ~delay:p.ack_delay;
    deliver_all p ctx.bc_g'_only_neighbors ~delay:p.ack_delay
  in
  let forced ctx = List.hd ctx.fc_candidates in
  {
    pol_name = "eager";
    pol_plan = plan;
    pol_forced = forced;
    pol_reads_received = false;
  }

(* The plan of [random_compliant] and [bursty]: an ack drawn in
   [Fack/2, Fack], a delay below it for each G-neighbor, then for each
   G'-only neighbor one [up] draw and, if it holds, a delay.  The traces
   depend on this draw order.  Each delay draw reads the ack back from
   the plan, boxed once, as in [eager]. *)
let random_plan ~up ctx =
  let rng = ctx.bc_rng and p = ctx.bc_plan in
  set_ack p ~delay:((0.5 +. (0.5 *. Dsim.Rng.float rng 1.)) *. ctx.bc_fack);
  let g = ctx.bc_g_neighbors in
  for i = 0 to Array.length g - 1 do
    deliver p ~receiver:g.(i) ~delay:(Dsim.Rng.float rng p.ack_delay)
  done;
  let g' = ctx.bc_g'_only_neighbors in
  for i = 0 to Array.length g' - 1 do
    if up rng ctx.bc_sender g'.(i) then
      deliver p ~receiver:g'.(i) ~delay:(Dsim.Rng.float rng p.ack_delay)
  done

let random_compliant ?(p_unreliable = 0.5) () =
  let up rng _ _ = Dsim.Rng.bernoulli rng ~p:p_unreliable in
  let forced ctx =
    (* Same single length-bounded draw as [Rng.pick] on an array copy,
       without the copy. *)
    Dsim.Rng.pick_list ctx.fc_rng ctx.fc_candidates
  in
  {
    pol_name = "random";
    pol_plan = random_plan ~up;
    pol_forced = forced;
    pol_reads_received = false;
  }

let adversarial () =
  let plan ctx =
    set_ack ctx.bc_plan ~delay:ctx.bc_fack;
    deliver_all ctx.bc_plan ctx.bc_g_neighbors ~delay:ctx.bc_fack
  in
  let forced ctx =
    (* Preference order: a body the receiver already has (pure waste), then
       an unreliable-only sender (out-of-pipeline injection), then anything. *)
    let duplicates =
      List.filter (fun c -> ctx.fc_has_received c.cand_body) ctx.fc_candidates
    in
    let unreliable_only =
      List.filter (fun c -> not c.cand_is_g_neighbor) ctx.fc_candidates
    in
    match (duplicates, unreliable_only) with
    | c :: _, _ -> c
    | [], c :: _ -> c
    | [], [] -> List.hd ctx.fc_candidates
  in
  {
    pol_name = "adversarial";
    pol_plan = plan;
    pol_forced = forced;
    pol_reads_received = true;
  }

let bursty ?(p_bad = 0.15) ?(p_good = 0.1) () =
  let state : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let edge_up rng u v =
    (* Node ids are non-negative and far below 2^31, so this pack is
       injective on a 63-bit int — one immediate key, no tuple to hash
       structurally.  The table is only probed (find_opt/replace), never
       iterated, so the key change cannot reorder anything. *)
    let key = (u lsl 31) lor v in
    let good =
      match Hashtbl.find_opt state key with Some g -> g | None -> true
    in
    let good' =
      if good then not (Dsim.Rng.bernoulli rng ~p:p_bad)
      else Dsim.Rng.bernoulli rng ~p:p_good
    in
    Hashtbl.replace state key good';
    good'
  in
  let forced ctx = Dsim.Rng.pick_list ctx.fc_rng ctx.fc_candidates in
  {
    pol_name = "bursty";
    pol_plan = random_plan ~up:edge_up;
    pol_forced = forced;
    pol_reads_received = false;
  }

let name p = p.pol_name

let all_standard () =
  [
    ("eager", fun () -> eager ());
    ("random", fun () -> random_compliant ());
    ("adversarial", fun () -> adversarial ());
    ("bursty", fun () -> bursty ());
  ]
