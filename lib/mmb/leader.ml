type result = {
  leaders : int array;
  elected : bool;
  time : float;
  bcasts : int;
}

type 'a node_state = {
  mutable best : 'a;
  mutable in_flight : 'a option; (* the value currently broadcasting *)
  mutable last_sent : 'a option; (* highest value fully broadcast *)
}

let flood ~dual ~fack ~fprog ~policy ~seed ~check_compliance ~max_events init =
  let n = Graphs.Dual.n dual in
  let (states, last_change, bcasts), violations, _ =
    Runner.drive ~dual ~fack ~fprog ~check_compliance
      ~instrument:Instrument.none
      ~ledger:(fun _ -> Problem.tracker ~dual [])
      (fun trace ->
        let sim = Dsim.Sim.create () in
        let mac =
          Amac.Standard_mac.create ~sim ~dual ~fack ~fprog ~policy
            ~rng:(Dsim.Rng.create ~seed) ?trace ()
        in
        let states =
          Array.map (fun v -> { best = v; in_flight = None; last_sent = None })
            init
        in
        let last_change = ref 0. in
        let maybe_send node =
          let st = states.(node) in
          let stale =
            match st.last_sent with Some v -> v < st.best | None -> true
          in
          if st.in_flight = None && stale then begin
            st.in_flight <- Some st.best;
            Amac.Standard_mac.bcast mac ~node st.best
          end
        in
        for node = 0 to n - 1 do
          Amac.Standard_mac.attach mac ~node
            {
              Amac.Mac_intf.on_rcv =
                (fun ~src:_ v ->
                  let st = states.(node) in
                  if v > st.best then begin
                    st.best <- v;
                    last_change := Dsim.Sim.now sim;
                    maybe_send node
                  end);
              on_ack =
                (fun v ->
                  let st = states.(node) in
                  (match st.in_flight with
                  | Some w when w = v -> st.in_flight <- None
                  | _ -> invalid_arg "Leader.flood: unexpected ack");
                  st.last_sent <-
                    Some
                      (match st.last_sent with Some p -> max p v | None -> v);
                  maybe_send node);
            }
        done;
        for node = 0 to n - 1 do
          Amac.Standard_mac.env_at mac ~time:0. (fun () -> maybe_send node)
        done;
        ignore (Dsim.Sim.run ~max_events sim);
        (false, (states, !last_change, Amac.Standard_mac.bcast_count mac)))
  in
  ((Array.map (fun st -> st.best) states, last_change, bcasts), violations)

let run ~dual ~fack ~fprog ~policy ~seed ?ids ?(check_compliance = false)
    ?(max_events = 50_000_000) () =
  let n = Graphs.Dual.n dual in
  let ids = match ids with Some a -> a | None -> Array.init n Fun.id in
  if Array.length ids <> n then invalid_arg "Leader.run: ids size mismatch";
  let (leaders, time, bcasts), violations =
    flood ~dual ~fack ~fprog ~policy ~seed ~check_compliance ~max_events ids
  in
  (* Verify agreement component by component. *)
  let comp = Graphs.Bfs.components (Graphs.Dual.reliable dual) in
  let comp_max = Hashtbl.create 8 in
  Array.iteri
    (fun v id ->
      let c = comp.(v) in
      let cur = try Hashtbl.find comp_max c with Not_found -> min_int in
      Hashtbl.replace comp_max c (max cur id))
    ids;
  let elected = ref true in
  Array.iteri
    (fun v leader ->
      if leader <> Hashtbl.find comp_max comp.(v) then elected := false)
    leaders;
  ({ leaders; elected = !elected; time; bcasts }, violations)
