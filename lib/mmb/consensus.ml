type result = {
  decisions : int array;
  agreed : bool;
  valid : bool;
  time : float;
  bcasts : int;
}

let run ~dual ~fack ~fprog ~policy ~proposals ~seed ?ids
    ?(check_compliance = false) ?(max_events = 50_000_000) () =
  let n = Graphs.Dual.n dual in
  if Array.length proposals <> n then
    invalid_arg "Consensus.run: proposals size mismatch";
  let ids = match ids with Some a -> a | None -> Array.init n Fun.id in
  if Array.length ids <> n then invalid_arg "Consensus.run: ids size mismatch";
  let (best, time, bcasts), violations =
    Leader.flood ~dual ~fack ~fprog ~policy ~seed ~check_compliance
      ~max_events
      (Array.init n (fun v -> (ids.(v), proposals.(v))))
  in
  let decisions = Array.map snd best in
  (* Agreement: one decision per component (the max-id node's proposal). *)
  let comp = Graphs.Bfs.components (Graphs.Dual.reliable dual) in
  let comp_best = Hashtbl.create 8 in
  Array.iteri
    (fun v id ->
      let c = comp.(v) in
      let cur =
        try Hashtbl.find comp_best c with Not_found -> (min_int, 0)
      in
      if (id, proposals.(v)) > cur then
        Hashtbl.replace comp_best c (id, proposals.(v)))
    ids;
  let agreed = ref true in
  Array.iteri
    (fun v d ->
      if d <> snd (Hashtbl.find comp_best comp.(v)) then agreed := false)
    decisions;
  let valid =
    Array.for_all (fun d -> Array.exists (fun p -> p = d) proposals) decisions
  in
  ({ decisions; agreed = !agreed; valid; time; bcasts }, violations)
