type t = {
  g : Graph.t;
  g' : Graph.t;
  embedding : Geometry.point array option;
  g'_only : int array array;
  reliable_bits : Dsim.Bitset.t;
}

(* Cap on n for the n*n reliable-edge bitset (8 MiB at the cap); larger
   instances fall back to Graph.mem_edge, which is still correct. *)
let bitset_max_n = 8192

(* One node's [G' \ G] row: its sorted G'-neighbors with the reliable
   ones filtered out.  [Graph.neighbors] is sorted ascending, and the
   filter preserves order, so the row is sorted ascending too — the
   invariant [g'_only_neighbors] documents and [with_g'] maintains per
   dirty node. *)
let g'_only_row ~g ~g' u =
  let nbrs = Graph.neighbors g' u in
  let count = ref 0 in
  for i = 0 to Array.length nbrs - 1 do
    if not (Graph.mem_edge g u nbrs.(i)) then incr count
  done;
  if !count = 0 then [||]
  else begin
    let out = Array.make !count 0 in
    let j = ref 0 in
    for i = 0 to Array.length nbrs - 1 do
      let v = nbrs.(i) in
      if not (Graph.mem_edge g u v) then begin
        out.(!j) <- v;
        incr j
      end
    done;
    out
  end

let build_g'_only ~g ~g' =
  Array.init (Graph.n g) (fun u -> g'_only_row ~g ~g' u)

(* Bit [u * n + v] for each G-edge, both ways; empty above the cap. *)
let build_reliable_bits ~g =
  let n = Graph.n g in
  if n > bitset_max_n then Dsim.Bitset.create ~width:0
  else begin
    let bits = Dsim.Bitset.create ~width:(n * n) in
    Graph.fold_edges
      (fun u v () ->
        Dsim.Bitset.add bits ((u * n) + v);
        Dsim.Bitset.add bits ((v * n) + u))
      g ();
    bits
  end

let create ?embedding ~g ~g' () =
  if Graph.n g <> Graph.n g' then
    invalid_arg "Dual.create: node-count mismatch";
  if not (Graph.is_subgraph ~sub:g ~super:g') then
    invalid_arg "Dual.create: G is not a subgraph of G'";
  (match embedding with
  | Some pts when Array.length pts <> Graph.n g ->
      invalid_arg "Dual.create: embedding size mismatch"
  | _ -> ());
  { g; g'; embedding;
    g'_only = build_g'_only ~g ~g';
    reliable_bits = build_reliable_bits ~g }

(* Refresh seam for lib/dyn: swap in a new G' while keeping G (and
   therefore [reliable_bits]) untouched.  Rows of [g'_only] for nodes
   outside [dirty] are shared physically with the source dual — only
   the dirty rows are rebuilt — so a churn step touching k nodes costs
   O(k * deg) instead of O(n * deg).  Callers are trusted to list every
   node whose G'-adjacency changed; test/test_dyn.ml checks the
   rebuild-equivalence contract (fresh build = incremental refresh). *)
let with_g' t ~g' ~dirty =
  if Graph.n g' <> Graph.n t.g then
    invalid_arg "Dual.with_g': node-count mismatch";
  if not (Graph.is_subgraph ~sub:t.g ~super:g') then
    invalid_arg "Dual.with_g': G is not a subgraph of G'";
  let g'_only = Array.copy t.g'_only in
  Array.iter
    (fun u ->
      if u < 0 || u >= Graph.n t.g then
        invalid_arg "Dual.with_g': dirty node out of range";
      g'_only.(u) <- g'_only_row ~g:t.g ~g' u)
    dirty;
  { t with g'; g'_only }

let reliable t = t.g
let unreliable t = t.g'
let n t = Graph.n t.g

let g'_only_neighbors t u = t.g'_only.(u)

let is_reliable t u v =
  let n = Graph.n t.g in
  if u < 0 || v < 0 || u >= n || v >= n || u = v then false
  else if n > bitset_max_n then Graph.mem_edge t.g u v
  else Dsim.Bitset.mem t.reliable_bits ((u * n) + v)

let unreliable_only_edges t =
  List.filter (fun (u, v) -> not (Graph.mem_edge t.g u v)) (Graph.edges t.g')

let equal_graphs t = Graph.m t.g = Graph.m t.g'

let power g ~r =
  if r < 1 then invalid_arg "Dual.power: need r >= 1";
  let n = Graph.n g in
  let edges = ref [] in
  for u = 0 to n - 1 do
    let dist = Bfs.distances g ~src:u in
    for v = u + 1 to n - 1 do
      if dist.(v) <> Bfs.unreachable && dist.(v) <= r then
        edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

(* One BFS per node that owns a G'-edge *outside* G, not one per G'
   edge: edges shared with G are distance 1 by definition, so an equal
   dual costs zero searches and an r-restricted dual only pays for the
   few nodes carrying extra links.  The old per-edge Bfs.distance made
   this O(n * m) — a hang, not a cost, at mega (1e5+ node) scale.  Each
   search from u stops once it has reached every G'-only neighbor above
   u, so on an r-restricted dual it sees only u's r-ball.  The searches
   share one distance array and one queue, allocated at the first
   G'-only edge (an equal dual allocates nothing); a search resets the
   entries it touched, and marks its pending targets [target]. *)
let restriction_radius t =
  let n = Graph.n t.g in
  let target = -1 in
  let worst = ref 1 in
  let dist = ref [||] and queue = ref [||] in
  (try
     for u = 0 to n - 1 do
       let row = t.g'_only.(u) in
       let pending = ref 0 in
       for i = 0 to Array.length row - 1 do
         if row.(i) > u then incr pending
       done;
       if !pending > 0 then begin
         if Array.length !dist = 0 then begin
           dist := Array.make n Bfs.unreachable;
           queue := Array.make n 0
         end;
         let dist = !dist and queue = !queue in
         for i = 0 to Array.length row - 1 do
           if row.(i) > u then dist.(row.(i)) <- target
         done;
         dist.(u) <- 0;
         queue.(0) <- u;
         let head = ref 0 and tail = ref 1 in
         while !pending > 0 && !head < !tail do
           let x = queue.(!head) in
           incr head;
           let d = dist.(x) + 1 in
           let nbrs = Graph.neighbors t.g x in
           for i = 0 to Array.length nbrs - 1 do
             let v = nbrs.(i) in
             let dv = dist.(v) in
             if dv = Bfs.unreachable || dv = target then begin
               dist.(v) <- d;
               queue.(!tail) <- v;
               incr tail;
               if dv = target then begin
                 decr pending;
                 if d > !worst then worst := d
               end
             end
           done
         done;
         if !pending > 0 then begin
           worst := max_int;
           raise Exit
         end;
         for i = 0 to !tail - 1 do
           dist.(queue.(i)) <- Bfs.unreachable
         done
       end
     done
   with Exit -> ());
  !worst

let is_r_restricted t ~r =
  Graph.fold_edges
    (fun u v ok ->
      ok
      &&
      let d = Bfs.distance t.g u v in
      d <> Bfs.unreachable && d <= r)
    t.g' true

let is_grey_zone t ~c =
  match t.embedding with
  | None -> false
  | Some pts ->
      let n = Graph.n t.g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let d = Geometry.dist pts.(u) pts.(v) in
          let in_g = Graph.mem_edge t.g u v in
          if in_g <> (d <= 1.) then ok := false;
          if Graph.mem_edge t.g' u v && d > c then ok := false
        done
      done;
      !ok

let of_equal g = create ~g ~g':g ()

let arbitrary_random rng ~g ~extra =
  let n = Graph.n g in
  let candidates = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (Graph.mem_edge g u v) then candidates := (u, v) :: !candidates
    done
  done;
  let pool = Array.of_list !candidates in
  Dsim.Rng.shuffle rng pool;
  let take = min extra (Array.length pool) in
  let chosen = Array.to_list (Array.sub pool 0 take) in
  create ~g ~g':(Graph.of_edges ~n (Graph.edges g @ chosen)) ()

let r_restricted_random rng ~g ~r ~extra =
  if r < 1 then invalid_arg "Dual.r_restricted_random: need r >= 1";
  let n = Graph.n g in
  let candidates = ref [] in
  for u = 0 to n - 1 do
    let dist = Bfs.distances g ~src:u in
    for v = u + 1 to n - 1 do
      if dist.(v) >= 2 && dist.(v) <> Bfs.unreachable && dist.(v) <= r then
        candidates := (u, v) :: !candidates
    done
  done;
  let pool = Array.of_list !candidates in
  Dsim.Rng.shuffle rng pool;
  let take = min extra (Array.length pool) in
  let chosen = Array.to_list (Array.sub pool 0 take) in
  create ~g ~g':(Graph.of_edges ~n (Graph.edges g @ chosen)) ()

let grey_zone_random rng ~n ~width ~height ~c ~p =
  if c < 1. then invalid_arg "Dual.grey_zone_random: need c >= 1";
  let points =
    Array.init n (fun _ -> Geometry.random_in_box rng ~width ~height)
  in
  let g_edges = ref [] and extra = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Geometry.dist points.(u) points.(v) in
      if d <= 1. then g_edges := (u, v) :: !g_edges
      else if d <= c && Dsim.Rng.bernoulli rng ~p then
        extra := (u, v) :: !extra
    done
  done;
  let g = Graph.of_edges ~n !g_edges in
  let g' = Graph.of_edges ~n (!g_edges @ !extra) in
  create ~embedding:points ~g ~g' ()

let of_embedding ~points ~c =
  if c < 1. then invalid_arg "Dual.of_embedding: need c >= 1";
  let n = Array.length points in
  let g_edges = ref [] and extra = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Geometry.dist points.(u) points.(v) in
      if d <= 1. then g_edges := (u, v) :: !g_edges
      else if d <= c then extra := (u, v) :: !extra
    done
  done;
  let g = Graph.of_edges ~n !g_edges in
  let g' = Graph.of_edges ~n (!g_edges @ !extra) in
  create ~embedding:points ~g ~g' ()

let grey_zone_connected rng ~n ~width ~height ~c ~p ~max_tries =
  let rec attempt tries =
    if tries = 0 then
      failwith "Dual.grey_zone_connected: no connected sample found"
    else begin
      let dual = grey_zone_random rng ~n ~width ~height ~c ~p in
      if Bfs.is_connected dual.g then dual else attempt (tries - 1)
    end
  in
  attempt max_tries

(* Figure 2.  Nodes a_1..a_D are 0..D-1; b_1..b_D are D..2D-1 (paper indices
   are 1-based). *)
let two_line_a ~d i =
  if i < 1 || i > d then invalid_arg "Dual.two_line_a: index out of range";
  i - 1

let two_line_b ~d i =
  if i < 1 || i > d then invalid_arg "Dual.two_line_b: index out of range";
  d + i - 1

let two_line ~d =
  if d < 2 then invalid_arg "Dual.two_line: need d >= 2";
  let a = two_line_a ~d and b = two_line_b ~d in
  let g_edges = ref [] in
  for i = 1 to d - 1 do
    g_edges := (a i, a (i + 1)) :: (b i, b (i + 1)) :: !g_edges
  done;
  let cross = ref [] in
  for i = 1 to d - 1 do
    cross := (a i, b (i + 1)) :: (b i, a (i + 1)) :: !cross
  done;
  let g = Graph.of_edges ~n:(2 * d) !g_edges in
  let g' = Graph.of_edges ~n:(2 * d) (!g_edges @ !cross) in
  (* The paper notes C is grey-zone realizable for a large enough constant
     c: place the lines one unit apart horizontally and 1.05 apart
     vertically, so line edges have length exactly 1, opposite nodes are
     not G-neighbors (1.05 > 1), and cross edges span sqrt(1 + 1.05^2)
     ~ 1.45 <= c for any c >= 1.45. *)
  let gap = 1.05 in
  let embedding =
    Array.init (2 * d) (fun v ->
        if v < d then Geometry.point (float_of_int v) 0.
        else Geometry.point (float_of_int (v - d)) gap)
  in
  create ~embedding ~g ~g' ()

(* Lemma 3.18.  Leaves u_1..u_{k-1} are 0..k-2, the hub u_k is k-1, and the
   sink v is k. *)
let choke_hub ~k =
  if k < 1 then invalid_arg "Dual.choke_hub: need k >= 1";
  k - 1

let choke_sink ~k =
  if k < 1 then invalid_arg "Dual.choke_sink: need k >= 1";
  k

let choke ~k =
  let hub = choke_hub ~k and sink = choke_sink ~k in
  let edges = (hub, sink) :: List.init (k - 1) (fun i -> (i, hub)) in
  of_equal (Graph.of_edges ~n:(k + 1) edges)
[@@mmb.alloc_ok "graph construction, init-phase"]

let pp ppf t =
  Fmt.pf ppf "dual(n=%d, |E|=%d, |E'|=%d%s)" (Graph.n t.g) (Graph.m t.g)
    (Graph.m t.g')
    (match t.embedding with Some _ -> ", embedded" | None -> "")
