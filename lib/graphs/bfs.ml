let unreachable = max_int

(* The BFS queue: a ring of ints that doubles when full.  A search holds
   only its frontier, so a grid's search keeps a few thousand slots, not
   one per node, and a push allocates nothing between doublings (a
   [Stdlib.Queue] cell per push costs 3 words). *)
type ring = { mutable buf : int array; mutable head : int; mutable len : int }

let ring () = { buf = Array.make 64 0; head = 0; len = 0 }

let push r v =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let buf = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      buf.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- v;
  r.len <- r.len + 1

let pop r =
  let v = r.buf.(r.head) in
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  v

let distances g ~src =
  let n = Graph.n g in
  let dist = Array.make n unreachable in
  let queue = ring () in
  dist.(src) <- 0;
  push queue src;
  while queue.len > 0 do
    let u = pop queue in
    let nbrs = Graph.neighbors g u in
    for i = 0 to Array.length nbrs - 1 do
      let v = nbrs.(i) in
      if dist.(v) = unreachable then begin
        dist.(v) <- dist.(u) + 1;
        push queue v
      end
    done
  done;
  dist

let distance g u v = (distances g ~src:u).(v)

let eccentricity g v =
  Array.fold_left
    (fun acc d -> if d = unreachable then acc else max acc d)
    0
    (distances g ~src:v)

let diameter g =
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    best := max !best (eccentricity g v)
  done;
  !best

(* Double sweep: BFS from node 0 finds a farthest node [u]; ecc(u) is a
   lower bound on the diameter, exact on trees and grids. *)
let pseudo_diameter g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let dist = distances g ~src:0 in
    let far = ref 0 in
    for v = 1 to n - 1 do
      if dist.(v) <> unreachable && dist.(v) > dist.(!far) then far := v
    done;
    eccentricity g !far
  end

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let queue = ring () in
  let next = ref 0 in
  for src = 0 to n - 1 do
    if comp.(src) = -1 then begin
      let id = !next in
      incr next;
      comp.(src) <- id;
      push queue src;
      while queue.len > 0 do
        let u = pop queue in
        let nbrs = Graph.neighbors g u in
        for i = 0 to Array.length nbrs - 1 do
          let v = nbrs.(i) in
          if comp.(v) = -1 then begin
            comp.(v) <- id;
            push queue v
          end
        done
      done
    end
  done;
  comp

let component_count g =
  let comp = components g in
  Array.fold_left (fun acc id -> max acc (id + 1)) 0 comp

let is_connected g = Graph.n g <= 1 || component_count g = 1
