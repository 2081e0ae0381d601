type t = { n : int; adj : int array array; m : int }

let check_endpoint n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" v n)

let dedup_sorted a =
  (* [a] sorted; returns a fresh array without consecutive duplicates. *)
  let len = Array.length a in
  if len = 0 then [||]
  else begin
    let out = ref [ a.(0) ] and count = ref 1 in
    for i = 1 to len - 1 do
      if a.(i) <> a.(i - 1) then begin
        out := a.(i) :: !out;
        incr count
      end
    done;
    let n = !count in
    let res = Array.make n 0 in
    List.iteri (fun i v -> res.(n - 1 - i) <- v) !out;
    res
  end

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let buckets = Array.make n [] in
  List.iter
    (fun (u, v) ->
      check_endpoint n u;
      check_endpoint n v;
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      buckets.(u) <- v :: buckets.(u);
      buckets.(v) <- u :: buckets.(v))
    edges;
  let adj =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort Int.compare a;
        dedup_sorted a)
      buckets
  in
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2 in
  { n; adj; m }

let empty ~n = of_edges ~n []

let n t = t.n
let m t = t.m

let neighbors t v =
  check_endpoint t.n v;
  t.adj.(v)

let degree t v = Array.length (neighbors t v)

let mem_edge t u v =
  check_endpoint t.n u;
  check_endpoint t.n v;
  if u = v then false
  else begin
    (* A loop, not a local recursive search: that would be a closure,
       allocated on every call. *)
    let a = t.adj.(u) in
    let lo = ref 0 and hi = ref (Array.length a) and found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let x = a.(mid) in
      if x = v then found := true
      else if x < v then lo := mid + 1
      else hi := mid
    done;
    !found
  end

let fold_edges f t acc =
  let acc = ref acc in
  for u = 0 to t.n - 1 do
    let row = t.adj.(u) in
    for i = 0 to Array.length row - 1 do
      let v = row.(i) in
      if u < v then acc := f u v !acc
    done
  done;
  !acc

let edges t = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) t [])

let iter_nodes t f =
  for v = 0 to t.n - 1 do
    f v
  done

let union g h =
  if g.n <> h.n then invalid_arg "Graph.union: node-count mismatch";
  of_edges ~n:g.n (edges g @ edges h)

let is_subgraph ~sub ~super =
  sub.n = super.n
  && fold_edges (fun u v ok -> ok && mem_edge super u v) sub true

let max_degree t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.adj

let pp ppf t =
  Fmt.pf ppf "graph(n=%d, m=%d)" t.n t.m
