open Mac_intf

let eager ?(latency_frac = 0.1) () =
  let plan ctx =
    let p = ctx.bc_plan in
    let delay = latency_frac *. ctx.bc_fprog in
    (* Every delivery at the ack. *)
    set_ack p ~delay;
    deliver_all p ctx.bc_g_neighbors ~delay;
    deliver_all p ctx.bc_g'_only_neighbors ~delay
  in
  {
    pol_name = "eager";
    pol_plan = plan;
    pol_forced = (fun _ -> 0);
    pol_reads_received = false;
  }

(* The plan of [random_compliant] and [bursty]: an ack drawn in
   [Fack/2, Fack], a delay below it for each G-neighbor, then for each
   G'-only neighbor one [up] draw and, if it holds, a delay.  The traces
   depend on this draw order.  Every draw goes straight into the plan's
   cells: the ack's uniform [u] is drawn into the ack's cell and scaled
   there, since a float held in a variable would be boxed when passed
   on. *)
let random_plan ~up ctx =
  let rng = ctx.bc_rng and p = ctx.bc_plan in
  let ack = p.ack in
  ack.(0) <- 1.;
  Dsim.Rng.float_cell rng ack 0;
  ack.(0) <- (0.5 +. (0.5 *. ack.(0))) *. ctx.bc_fack;
  let g = ctx.bc_g_neighbors in
  for i = 0 to Array.length g - 1 do
    deliver_uniform p rng ~receiver:g.(i)
  done;
  let g' = ctx.bc_g'_only_neighbors in
  for i = 0 to Array.length g' - 1 do
    if up rng ctx.bc_sender g'.(i) then deliver_uniform p rng ~receiver:g'.(i)
  done

(* A uniform candidate: the one draw [Rng.pick] makes. *)
let uniform_forced ctx = Dsim.Rng.int ctx.fc_rng ctx.fc_count

let random_compliant ?(p_unreliable = 0.5) () =
  let up rng _ _ = Dsim.Rng.bernoulli rng ~p:p_unreliable in
  {
    pol_name = "random";
    pol_plan = random_plan ~up;
    pol_forced = uniform_forced;
    pol_reads_received = false;
  }

(* The first position in [i, fc_count) that satisfies [pred], or -1. *)
let rec first ctx pred i =
  if i >= ctx.fc_count then -1
  else if pred ctx i then i
  else first ctx pred (i + 1)

let duplicate ctx i = ctx.fc_has_received ctx.fc_bodies.(i)
let unreliable_only ctx i = not ctx.fc_is_g_neighbor.(i)

let wasteful_forced ctx =
  (* Preference order: a body the receiver already has (pure waste), then
     an unreliable-only sender (out-of-pipeline injection), then the
     first candidate. *)
  let d = first ctx duplicate 0 in
  if d >= 0 then d
  else
    let u = first ctx unreliable_only 0 in
    if u >= 0 then u else 0

let adversarial () =
  let plan ctx =
    set_ack ctx.bc_plan ~delay:ctx.bc_fack;
    deliver_all ctx.bc_plan ctx.bc_g_neighbors ~delay:ctx.bc_fack
  in
  {
    pol_name = "adversarial";
    pol_plan = plan;
    pol_forced = wasteful_forced;
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
  {
    pol_name = "bursty";
    pol_plan = random_plan ~up:edge_up;
    pol_forced = uniform_forced;
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
