type params = { periods : int; p_active : float; use_acks : bool }

let default_params ~n ~k ~c =
  let c2 = c *. c in
  {
    periods =
      8
      + int_of_float
          (ceil (6. *. c2 *. (float_of_int k +. log (float_of_int (max 2 n)))));
    p_active = Float.min 0.5 (1. /. (2. *. c2));
    use_acks = true;
  }

type result = {
  mis_sets : Dsim.Bitset.t array;
  leftover : int;
  rounds_run : int;
  budget_rounds : int;
  data_broadcasts : int;
}

type state = {
  active_p : float;
  acks : bool;
  rng : Dsim.Rng.t;
  mis : bool array;
  sets : Dsim.Bitset.t array;
  on_payload : node:int -> payload:int -> unit;
  heard_probe : bool array;
  absorbed : int option array;
  mutable data_broadcasts : int;
}

let init ~p_active ~use_acks ~rng ~mis ~sets ~on_payload =
  let n = Array.length mis in
  {
    active_p = p_active;
    acks = use_acks;
    rng;
    mis;
    sets;
    on_payload;
    heard_probe = Array.make n false;
    absorbed = Array.make n None;
    data_broadcasts = 0;
  }

let receive s ~node:v ~round inbox =
  List.iter
    (fun env ->
      match Fmmb_msg.payload env.Amac.Message.body with
      | Some payload -> s.on_payload ~node:v ~payload
      | None -> ())
    inbox;
  match round mod 3 with
  | 0 ->
      if not s.mis.(v) then
        s.heard_probe.(v) <-
          List.exists
            (fun env ->
              match env.Amac.Message.body with
              | Fmmb_msg.Probe { origin = _ } -> env.Amac.Message.reliable
              | _ -> false)
            inbox
  | 1 ->
      if s.mis.(v) then
        List.iter
          (fun env ->
            match env.Amac.Message.body with
            | Fmmb_msg.Data { origin = _; payload }
              when env.Amac.Message.reliable ->
                Dsim.Bitset.add s.sets.(v) payload;
                if s.absorbed.(v) = None then s.absorbed.(v) <- Some payload
            | _ -> ())
          inbox
  | _ ->
      if (not s.mis.(v)) && s.acks then
        List.iter
          (fun env ->
            match env.Amac.Message.body with
            | Fmmb_msg.Ack_data { origin = _; payload }
              when env.Amac.Message.reliable ->
                Dsim.Bitset.remove s.sets.(v) payload
            | _ -> ())
          inbox

let act s ~node:v ~round =
  match round mod 3 with
  | 0 ->
      s.absorbed.(v) <- None;
      if s.mis.(v) && Dsim.Rng.bernoulli s.rng ~p:s.active_p then
        Amac.Enhanced_mac.Broadcast (Fmmb_msg.Probe { origin = v })
      else Amac.Enhanced_mac.Listen
  | 1 -> (
      if s.mis.(v) || not s.heard_probe.(v) then Amac.Enhanced_mac.Listen
      else
        match Dsim.Bitset.min_elt s.sets.(v) with
        | Some payload ->
            s.data_broadcasts <- s.data_broadcasts + 1;
            Amac.Enhanced_mac.Broadcast (Fmmb_msg.Data { origin = v; payload })
        | None -> Amac.Enhanced_mac.Listen)
  | _ -> (
      match (s.mis.(v) && s.acks, s.absorbed.(v)) with
      | true, Some payload ->
          Amac.Enhanced_mac.Broadcast (Fmmb_msg.Ack_data { origin = v; payload })
      | _ -> Amac.Enhanced_mac.Listen)

let leftover s =
  let total = ref 0 in
  for v = 0 to Array.length s.mis - 1 do
    if not s.mis.(v) then total := !total + Dsim.Bitset.cardinal s.sets.(v)
  done;
  !total

let run ~dual ~rng ~policy ~params ~mis ~initial ~on_payload ?engine ?trace
    ?(fprog = 1.) () =
  let n = Graphs.Dual.n dual in
  let sets = Array.init n (fun _ -> Dsim.Bitset.create ~width:0) in
  Array.iteri
    (fun v payloads -> List.iter (Dsim.Bitset.add sets.(v)) payloads)
    initial;
  let s =
    init ~p_active:params.p_active ~use_acks:params.use_acks ~rng ~mis ~sets
      ~on_payload
  in
  let engine =
    match engine with
    | Some e -> e
    | None ->
        Amac.Round_engine.of_enhanced
          (Amac.Enhanced_mac.create ~dual ~fprog ~policy ~rng ?trace ())
  in
  for v = 0 to n - 1 do
    engine.Amac.Round_engine.set_node ~node:v (fun ~round ~inbox ->
        if round > 0 then receive s ~node:v ~round:(round - 1) inbox;
        act s ~node:v ~round)
  done;
  (* Stop only at period boundaries so in-flight acks land. *)
  let stop () =
    engine.Amac.Round_engine.rounds_done () mod 3 = 0 && leftover s = 0
  in
  let budget_rounds = 3 * params.periods in
  let rounds_run =
    engine.Amac.Round_engine.run_until ~max_rounds:budget_rounds ~stop
  in
  {
    mis_sets = sets;
    leftover = leftover s;
    rounds_run;
    budget_rounds;
    data_broadcasts = s.data_broadcasts;
  }
