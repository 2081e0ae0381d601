let is_independent g nodes =
  let rec check = function
    | [] -> true
    | u :: rest ->
        List.for_all (fun v -> not (Graph.mem_edge g u v)) rest && check rest
  in
  check nodes

let is_maximal_independent g nodes =
  is_independent g nodes
  &&
  let in_set = Array.make (Graph.n g) false in
  List.iter (fun v -> in_set.(v) <- true) nodes;
  let covered v =
    in_set.(v) || Array.exists (fun u -> in_set.(u)) (Graph.neighbors g v)
  in
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if not (covered v) then ok := false
  done;
  !ok

let greedy_in_order g order =
  let n = Graph.n g in
  let blocked = Array.make n false in
  let chosen = ref [] in
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    if not blocked.(v) then begin
      chosen := v :: !chosen;
      Array.iter (fun u -> blocked.(u) <- true) (Graph.neighbors g v);
      blocked.(v) <- true
    end
  done;
  List.rev !chosen

let greedy g = greedy_in_order g (Array.init (Graph.n g) Fun.id)

let is_connected_dominating ~g ~member =
  let n = Graph.n g in
  let comp = Bfs.components g in
  let ncomp = Bfs.component_count g in
  let dominated v =
    member v || Array.exists member (Graph.neighbors g v)
  in
  let all_dominated = List.for_all dominated (List.init n Fun.id) in
  if not all_dominated then false
  else begin
    (* Per component: the members must induce a connected subgraph. *)
    let ok = ref true in
    for c = 0 to ncomp - 1 do
      let members =
        List.filter (fun v -> comp.(v) = c && member v) (List.init n Fun.id)
      in
      match members with
      | [] ->
          (* A component with nodes but no member cannot be dominated
             (covered above) unless empty — components always have >= 1
             node, so only singleton member-free components matter and
             those failed domination already. *)
          ()
      | root :: _ ->
          (* BFS within the member-induced subgraph. *)
          let seen = Dsim.Bitset.create ~width:n in
          let queue = Queue.create () in
          Dsim.Bitset.add seen root;
          Queue.push root queue;
          while not (Queue.is_empty queue) do
            let u = Queue.pop queue in
            Array.iter
              (fun v ->
                if member v && not (Dsim.Bitset.test_and_add seen v) then
                  Queue.push v queue)
              (Graph.neighbors g u)
          done;
          if List.exists (fun v -> not (Dsim.Bitset.mem seen v)) members then
            ok := false
    done;
    !ok
  end

let greedy_seeded rng g =
  let order = Array.init (Graph.n g) Fun.id in
  Dsim.Rng.shuffle rng order;
  greedy_in_order g order
