type 'msg action = Broadcast of 'msg | Listen

type 'msg node_fn = round:int -> inbox:'msg Message.t list -> 'msg action

type 'msg round_policy = {
  rp_name : string;
  rp_deliver :
    rng:Dsim.Rng.t ->
    receiver:int ->
    must:bool ->
    candidates:'msg Mac_intf.candidate list ->
    'msg Mac_intf.candidate list;
}

let generous () =
  {
    rp_name = "generous";
    rp_deliver = (fun ~rng:_ ~receiver:_ ~must:_ ~candidates -> candidates);
  }

let minimal_random () =
  {
    rp_name = "minimal-random";
    rp_deliver =
      (fun ~rng ~receiver:_ ~must ~candidates ->
        if must then [ Dsim.Rng.pick rng (Array.of_list candidates) ] else []);
  }

let round_adversarial () =
  {
    rp_name = "round-adversarial";
    rp_deliver =
      (fun ~rng ~receiver:_ ~must ~candidates ->
        if not must then []
        else begin
          let unreliable =
            List.filter
              (fun c -> not c.Mac_intf.cand_is_g_neighbor)
              candidates
          in
          let pool =
            if List.is_empty unreliable then candidates else unreliable
          in
          [ Dsim.Rng.pick rng (Array.of_list pool) ]
        end);
  }

type 'msg t = {
  dual : Graphs.Dual.t;
  fprog : float;
  policy : 'msg round_policy;
  rng : Dsim.Rng.t;
  trace : Dsim.Trace.t option;
  msg_id : ('msg -> int) option; (* payload id for trace msg fields *)
  nodes : 'msg node_fn option array;
  inbox : 'msg Message.t list array;
  mutable round : int;
  mutable next_uid : int;
}

let create ~dual ~fprog ~policy ~rng ?trace ?msg_id () =
  if fprog <= 0. then invalid_arg "Enhanced_mac.create: need fprog > 0";
  let n = Graphs.Dual.n dual in
  {
    dual;
    fprog;
    policy;
    rng;
    trace;
    msg_id;
    nodes = Array.make n None;
    inbox = Array.make n [];
    round = 0;
    next_uid = 0;
  }

let set_node t ~node fn = t.nodes.(node) <- Some fn

let round t = t.round
let now t = float_of_int t.round *. t.fprog
let trace t = t.trace

(* An entry of instance [uid], whose [msg] is its body's MMB id under
   [msg_id], else the uid: the event is built, and the body projected,
   only when a trace is attached. *)
let record t ~time kind ~node ~uid body =
  match t.trace with
  | None -> ()
  | Some tr ->
      let msg = match t.msg_id with Some f -> f body | None -> uid in
      Dsim.Trace.record tr ~time
        (match kind with
        | `Bcast -> Dsim.Trace.Bcast { node; msg; instance = uid }
        | `Rcv -> Dsim.Trace.Rcv { node; msg; instance = uid }
        | `Abort -> Dsim.Trace.Abort { node; msg; instance = uid })

let validate_choice ~must ~candidates chosen =
  let mem c =
    List.exists
      (fun c' -> c'.Mac_intf.cand_uid = c.Mac_intf.cand_uid)
      candidates
  in
  if not (List.for_all mem chosen) then
    invalid_arg "Enhanced_mac: policy delivered a non-candidate";
  let uids = List.map (fun c -> c.Mac_intf.cand_uid) chosen in
  if List.length (List.sort_uniq Int.compare uids) <> List.length uids then
    invalid_arg "Enhanced_mac: policy delivered a duplicate";
  if must && List.is_empty chosen then
    invalid_arg "Enhanced_mac: progress bound requires a delivery"

let run_round t =
  let n = Graphs.Dual.n t.dual in
  let g = Graphs.Dual.reliable t.dual in
  let g' = Graphs.Dual.unreliable t.dual in
  let t_start = now t in
  (* The next round's start as [now] will compute it: [t_start +.
     fprog] can exceed it by an ulp, putting this round's last entries
     after that round's first. *)
  let t_end = float_of_int (t.round + 1) *. t.fprog in
  (* Phase 1: collect every node's action for this round. *)
  let broadcasting : 'msg Message.t option array = Array.make n None in
  for v = 0 to n - 1 do
    match t.nodes.(v) with
    | None -> ()
    | Some fn ->
        let inbox = t.inbox.(v) in
        t.inbox.(v) <- [];
        (match fn ~round:t.round ~inbox with
        | Listen -> ()
        | Broadcast body ->
            let uid = t.next_uid in
            t.next_uid <- uid + 1;
            (* The sender's own record of its broadcast; trivially on a
               reliable "edge" (itself). *)
            broadcasting.(v) <- Some (Message.make ~uid ~src:v ~reliable:true body);
            record t ~time:t_start `Bcast ~node:v ~uid body)
  done;
  (* Phase 2: resolve deliveries per receiver. *)
  for j = 0 to n - 1 do
    let candidates =
      Array.to_list (Graphs.Graph.neighbors g' j)
      |> List.filter_map (fun u ->
             match broadcasting.(u) with
             | None -> None
             | Some env ->
                 Some
                   {
                     Mac_intf.cand_uid = env.Message.uid;
                     cand_sender = u;
                     cand_body = env.Message.body;
                     cand_is_g_neighbor = Graphs.Graph.mem_edge g u j;
                   })
    in
    if not (List.is_empty candidates) then begin
      let must =
        List.exists (fun c -> c.Mac_intf.cand_is_g_neighbor) candidates
      in
      let chosen =
        t.policy.rp_deliver ~rng:t.rng ~receiver:j ~must ~candidates
      in
      validate_choice ~must ~candidates chosen;
      let envelopes =
        List.map
          (fun c ->
            record t ~time:t_end `Rcv ~node:j ~uid:c.Mac_intf.cand_uid
              c.Mac_intf.cand_body;
            Message.make ~uid:c.Mac_intf.cand_uid ~src:c.Mac_intf.cand_sender
              ~reliable:c.Mac_intf.cand_is_g_neighbor c.Mac_intf.cand_body)
          chosen
      in
      t.inbox.(j) <- envelopes
    end
  done;
  (* Phase 3: abort every broadcast at the round boundary. *)
  Array.iteri
    (fun v env_opt ->
      match env_opt with
      | None -> ()
      | Some env ->
          record t ~time:t_end `Abort ~node:v ~uid:env.Message.uid
            env.Message.body)
    broadcasting;
  t.round <- t.round + 1

let run_until t ~max_rounds ~stop =
  let executed = ref 0 in
  while !executed < max_rounds && not (stop ()) do
    run_round t;
    incr executed
  done;
  !executed
