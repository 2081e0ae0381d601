(* A versioned dual graph: a Graphs.Dual.t that tracks a Schedule's
   current epoch.  The refresh path rebuilds only the rows of nodes
   whose G'-adjacency actually changed (Graphs.Dual.with_g'); clean
   rows and the reliable-edge bitset are shared physically across
   epochs, and G itself never changes.

   The static path is special-cased to nothing: [of_static] pins
   [current] to the base dual and [view] returns it without touching a
   float, so a static graph expressed as a single-epoch schedule costs
   exactly what the plain static path costs — and produces the same
   bytes. *)

type t = {
  sched : Schedule.t;
  static : bool;
  mutable epoch : int;
  mutable current : Graphs.Dual.t;
  mutable extras : (int * int) array; (* current epoch's extras, sorted *)
  mutable refreshes : int; (* epochs that actually rebuilt something *)
}

let cmp_edge (a, b) (c, d) =
  let c0 = Int.compare a c in
  if c0 <> 0 then c0 else Int.compare b d

(* Nodes whose G'-adjacency differs between two sorted extras sets: the
   endpoints of the symmetric difference, deduplicated, ascending. *)
let dirty_nodes ~n old_e new_e =
  let flags = Dsim.Bitset.create ~width:n in
  let mark (u, v) =
    Dsim.Bitset.add flags u;
    Dsim.Bitset.add flags v
  in
  let lo = Array.length old_e and ln = Array.length new_e in
  let i = ref 0 and j = ref 0 in
  while !i < lo && !j < ln do
    let c = cmp_edge old_e.(!i) new_e.(!j) in
    if c = 0 then begin
      incr i;
      incr j
    end
    else if c < 0 then begin
      mark old_e.(!i);
      incr i
    end
    else begin
      mark new_e.(!j);
      incr j
    end
  done;
  while !i < lo do
    mark old_e.(!i);
    incr i
  done;
  while !j < ln do
    mark new_e.(!j);
    incr j
  done;
  let out = Array.make (Dsim.Bitset.cardinal flags) 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    if Dsim.Bitset.mem flags u then begin
      out.(!k) <- u;
      incr k
    end
  done;
  out

let refresh t ~epoch =
  let new_extras = Schedule.extras_at t.sched ~epoch in
  let dirty =
    dirty_nodes ~n:(Graphs.Dual.n t.current) t.extras new_extras
  in
  if Array.length dirty > 0 then begin
    let g = Graphs.Dual.reliable t.current in
    let g' =
      Graphs.Graph.of_edges ~n:(Graphs.Graph.n g)
        (Graphs.Graph.edges g @ Array.to_list new_extras)
    in
    t.current <- Graphs.Dual.with_g' t.current ~g' ~dirty;
    t.extras <- new_extras;
    t.refreshes <- t.refreshes + 1
  end;
  t.epoch <- epoch

let of_schedule sched =
  let base = Schedule.base sched in
  let t =
    {
      sched;
      static = Schedule.is_static sched;
      epoch = 0;
      current = base;
      extras = Array.of_list (Graphs.Dual.unreliable_only_edges base);
      refreshes = 0;
    }
  in
  Array.sort cmp_edge t.extras;
  (* Epoch 0 of a non-static schedule may already differ from the
     union pool (churn drops edges in its first window too). *)
  if not t.static then refresh t ~epoch:0;
  t

let of_static base = of_schedule (Schedule.static base)

let schedule t = t.sched
let base t = Schedule.base t.sched
let epoch t = t.epoch
let current t = t.current
let refreshes t = t.refreshes
let is_static t = t.static

let advance_to t ~epoch =
  if epoch < t.epoch then invalid_arg "Dyn.Dual.advance_to: epochs only advance";
  if not t.static && epoch > t.epoch then refresh t ~epoch

let view t ~time =
  if not t.static then begin
    let e = Schedule.epoch_of_time t.sched time in
    if e > t.epoch then refresh t ~epoch:e
  end;
  t.current

let note_bcast t ~node ~msg =
  match Schedule.oracle t.sched with
  | None -> ()
  | Some o -> Oracle.note o ~node ~msg

let note_delivery t ~node ~msg =
  match Schedule.oracle t.sched with
  | None -> ()
  | Some o -> Oracle.note o ~node ~msg
