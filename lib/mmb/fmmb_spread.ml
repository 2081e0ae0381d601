type params = { periods_per_phase : int; p_active : float; relays : bool }

let default_params ~n ~c =
  let c2 = c *. c in
  {
    periods_per_phase =
      4 + int_of_float (ceil (6. *. c2 *. log (float_of_int (max 2 n))));
    p_active = Float.min 0.5 (1. /. (2. *. c2));
    relays = true;
  }

type result = { rounds_run : int; phases_run : int }

type state = {
  params : params;
  rng : Dsim.Rng.t;
  mis : bool array;
  sets : Dsim.Bitset.t array;
  on_payload : node:int -> payload:int -> unit;
  sent : Dsim.Bitset.t array;
  current : int option array;
  relay_buf : int option array;
}

let init ~params ~rng ~mis ~sets ~on_payload =
  let n = Array.length mis in
  {
    params;
    rng;
    mis;
    sets;
    on_payload;
    sent = Array.init n (fun _ -> Dsim.Bitset.create ~width:0);
    current = Array.make n None;
    relay_buf = Array.make n None;
  }

let receive s ~node:v ~round inbox =
  List.iter
    (fun env ->
      match env.Amac.Message.body with
      | Fmmb_msg.Spread { payload } ->
          s.on_payload ~node:v ~payload;
          if s.mis.(v) then Dsim.Bitset.add s.sets.(v) payload;
          if
            s.params.relays
            && round mod 3 < 2
            && s.relay_buf.(v) = None
            && env.Amac.Message.reliable
          then s.relay_buf.(v) <- Some payload
      | _ -> ())
    inbox

let act s ~node:v ~round =
  if round mod 3 = 0 then begin
    (* Clearing after [receive] loses nothing: an inbox from a round
       [2 mod 3] arms no relay. *)
    s.relay_buf.(v) <- None;
    if s.mis.(v) && round mod (3 * s.params.periods_per_phase) = 0 then begin
      (* Phase boundary: retire the previous phase's message, pick the
         next unsent one. *)
      (match s.current.(v) with
      | Some m -> Dsim.Bitset.add s.sent.(v) m
      | None -> ());
      s.current.(v) <- Dsim.Bitset.min_diff s.sets.(v) s.sent.(v)
    end;
    if s.mis.(v) && Dsim.Rng.bernoulli s.rng ~p:s.params.p_active then
      match s.current.(v) with
      | Some payload -> Amac.Enhanced_mac.Broadcast (Fmmb_msg.Spread { payload })
      | None -> Amac.Enhanced_mac.Listen
    else Amac.Enhanced_mac.Listen
  end
  else
    match s.relay_buf.(v) with
    | Some payload ->
        s.relay_buf.(v) <- None;
        Amac.Enhanced_mac.Broadcast (Fmmb_msg.Spread { payload })
    | None -> Amac.Enhanced_mac.Listen

let run ~dual ~rng ~policy ~params ~mis ~sets ~on_payload ~stop ~max_phases
    ?engine ?(fprog = 1.) () =
  let n = Graphs.Dual.n dual in
  let phase_len = 3 * params.periods_per_phase in
  let s = init ~params ~rng ~mis ~sets ~on_payload in
  let engine =
    match engine with
    | Some e -> e
    | None ->
        Amac.Round_engine.of_enhanced
          (Amac.Enhanced_mac.create ~dual ~fprog ~policy ~rng ())
  in
  for v = 0 to n - 1 do
    engine.Amac.Round_engine.set_node ~node:v (fun ~round ~inbox ->
        if round > 0 then receive s ~node:v ~round:(round - 1) inbox;
        act s ~node:v ~round)
  done;
  let rounds_run =
    engine.Amac.Round_engine.run_until ~max_rounds:(max_phases * phase_len)
      ~stop
  in
  { rounds_run; phases_run = (rounds_run + phase_len - 1) / phase_len }
