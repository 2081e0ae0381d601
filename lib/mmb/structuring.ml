type params = {
  discover_rounds : int;
  exchange_rounds : int;
  p_discover : float;
  p_exchange : float;
}

let default_params ~dual ~c =
  let n = Graphs.Dual.n dual in
  let c2 = c *. c in
  let logn = log (float_of_int (max 2 n)) in
  let delta' =
    max 1 (Graphs.Graph.max_degree (Graphs.Dual.unreliable dual))
  in
  {
    discover_rounds = 8 + int_of_float (ceil (12. *. c2 *. logn));
    exchange_rounds =
      8 + int_of_float (ceil (6. *. float_of_int (delta' + 1) *. logn));
    p_discover = Float.min 0.5 (1. /. (2. *. c2));
    p_exchange = Float.min 0.5 (1. /. (2. *. float_of_int (delta' + 1)));
  }

type result = {
  mis : bool array;
  backbone : bool array;
  backbone_size : int;
  rounds_mis : int;
  rounds_structuring : int;
  valid : bool;
}

(* The validity oracle is a pure graph predicate; it lives in
   Graphs.Mis (re-exported here for compatibility). *)
let is_connected_dominating = Graphs.Mis.is_connected_dominating

let run ~dual ~rng ~policy ~c ?mis_params ?params ?(fprog = 1.) () =
  let n = Graphs.Dual.n dual in
  let mis_params =
    match mis_params with
    | Some p -> p
    | None -> Fmmb_mis.default_params ~n ~c
  in
  let params =
    match params with Some p -> p | None -> default_params ~dual ~c
  in
  (* Stage 1: MIS. *)
  let mis_res = Fmmb_mis.run ~dual ~rng ~policy ~params:mis_params ~fprog () in
  let mis = mis_res.Fmmb_mis.mis in
  (* Stages 2-3 on a fresh round engine. *)
  let mac = Amac.Enhanced_mac.create ~dual ~fprog ~policy ~rng () in
  let doms = Array.init n (fun _ -> Dsim.Bitset.create ~width:0) in
  Array.iteri (fun v m -> if m then Dsim.Bitset.add doms.(v) v) mis;
  (* A node's dominators, ascending. *)
  let doms_of v =
    let l = ref [] in
    Dsim.Bitset.iter (fun d -> l := d :: !l) doms.(v);
    List.rev !l
  in
  let heard : (int, int list) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 8)
  in
  let boundary = params.discover_rounds in
  let total = params.discover_rounds + params.exchange_rounds in
  for v = 0 to n - 1 do
    Amac.Enhanced_mac.set_node mac ~node:v (fun ~round ~inbox ->
        (* Interpret the previous round's receptions. *)
        List.iter
          (fun env ->
            match env.Amac.Message.body with
            | Fmmb_msg.Announce { origin } when env.Amac.Message.reliable ->
                Dsim.Bitset.add doms.(v) origin
            | Fmmb_msg.Doms { origin; doms = their }
              when env.Amac.Message.reliable ->
                Hashtbl.replace heard.(v) origin their
            | _ -> ())
          inbox;
        if round < boundary then begin
          (* Discovery: MIS nodes announce themselves. *)
          if mis.(v) && Dsim.Rng.bernoulli rng ~p:params.p_discover then
            Amac.Enhanced_mac.Broadcast (Fmmb_msg.Announce { origin = v })
          else Amac.Enhanced_mac.Listen
        end
        else if Dsim.Rng.bernoulli rng ~p:params.p_exchange then
          Amac.Enhanced_mac.Broadcast
            (Fmmb_msg.Doms
               {
                 origin = v;
                 (* Sorted so the message payload itself is replayable. *)
                 doms = doms_of v;
               })
        else Amac.Enhanced_mac.Listen)
  done;
  let rounds_structuring =
    Amac.Enhanced_mac.run_until mac ~max_rounds:(total + 1)
      ~stop:(fun () -> false)
  in
  (* Silent decision.  A non-MIS node volunteers when it is needed to
     connect two dominators:

     - 2-hop rule: v dominated by both A and B volunteers unless it heard a
       smaller-id neighbor also dominated by both (deferral chains end at
       the minimum common neighbor, so some node always volunteers);
     - 3-hop rule: v (dominated by A) heard a neighbor whose dominator B is
       foreign to v, and no heard neighbor covers both A and B (else the
       pair is 2-hop connected and handled above); both path endpoints
       volunteer, completing A-v-u-B. *)
  let volunteers v =
    if mis.(v) then false
    else begin
      let my = doms_of v in
      let covers u_doms a b = List.mem a u_doms && List.mem b u_doms in
      let two_hop =
        List.exists
          (fun a ->
            List.exists
              (fun b ->
                a < b
                && not
                     (Dsim.Tbl.sorted_fold ~cmp:Int.compare
                        (fun u u_doms acc ->
                          acc || (u < v && covers u_doms a b))
                        heard.(v) false))
              my)
          my
      in
      let three_hop =
        Dsim.Tbl.sorted_fold ~cmp:Int.compare
          (fun _ u_doms acc ->
            acc
            || List.exists
                 (fun b ->
                   (not (Dsim.Bitset.mem doms.(v) b))
                   && List.exists
                        (fun a ->
                          not
                            (Dsim.Tbl.sorted_fold ~cmp:Int.compare
                               (fun _ w_doms acc2 ->
                                 acc2 || covers w_doms a b)
                               heard.(v) false))
                        my)
                 u_doms)
          heard.(v) false
      in
      two_hop || three_hop
    end
  in
  let backbone = Array.init n (fun v -> mis.(v) || volunteers v) in
  let backbone_size =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 backbone
  in
  {
    mis;
    backbone;
    backbone_size;
    rounds_mis = mis_res.Fmmb_mis.rounds_run;
    rounds_structuring;
    valid =
      is_connected_dominating ~g:(Graphs.Dual.reliable dual)
        ~member:(fun v -> backbone.(v));
  }
