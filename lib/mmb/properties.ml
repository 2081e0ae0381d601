type t = {
  n : int;
  comp : int array; (* G-component of each node *)
  msgs : Dsim.Int_table.map Dsim.Int_table.t; (* numbered at first sight *)
  mutable origin : int array; (* by number: the arrival's node, or -1 *)
  delivered : Dsim.Bitset.t; (* [number * n + node] *)
  rcvd : Dsim.Bitset.t; (* nodes after their first MAC reception *)
  mutable findings : string list; (* reversed *)
}

let create ~dual =
  let g = Graphs.Dual.reliable dual in
  let n = Graphs.Graph.n g in
  {
    n;
    comp = Graphs.Bfs.components g;
    msgs = Dsim.Int_table.create_map ();
    origin = [||];
    delivered = Dsim.Bitset.create ~width:0;
    rcvd = Dsim.Bitset.create ~width:n;
    findings = [];
  }

let add t fmt = Printf.ksprintf (fun s -> t.findings <- s :: t.findings) fmt

(* The message's number, with room for it in [origin]. *)
let number t msg =
  let m = Dsim.Int_table.number t.msgs msg in
  if m = Array.length t.origin then begin
    let cap = (2 * m) + 8 in
    t.origin <- Array.init cap (fun i -> if i < m then t.origin.(i) else -1)
  end;
  m

(* The [delivered] id of (node, message number m). *)
let slot t ~node m = (m * t.n) + node

let on_entry t { Dsim.Trace.event; _ } =
  match event with
  | Dsim.Trace.Arrive { node; msg } ->
      let m = number t msg in
      if t.origin.(m) >= 0 then
        add t "message m%d arrived twice (MMB-well-formedness)" msg
      else t.origin.(m) <- node
  | Dsim.Trace.Rcv { node; _ } -> Dsim.Bitset.add t.rcvd node
  | Dsim.Trace.Deliver { node; msg } ->
      let m = number t msg in
      if Dsim.Bitset.test_and_add t.delivered (slot t ~node m) then
        add t "node %d delivered m%d twice (condition (b))" node msg;
      if t.origin.(m) < 0 then
        add t
          "node %d delivered m%d before (or without) its arrival (condition \
           (b))"
          node msg
      else if node <> t.origin.(m) && not (Dsim.Bitset.mem t.rcvd node) then
        add t "node %d delivered m%d without any prior MAC reception" node msg
  | Dsim.Trace.Bcast _ | Dsim.Trace.Ack _ | Dsim.Trace.Abort _ -> ()

let finish t =
  (* Completeness: every message must reach its origin's whole component,
     checked in ascending message id. *)
  let key = Dsim.Int_table.key t.msgs in
  List.init (Dsim.Int_table.length t.msgs) Fun.id
  |> List.filter (fun m -> t.origin.(m) >= 0)
  |> List.sort (fun a b -> Int.compare (key a) (key b))
  |> List.iter (fun m ->
         for v = 0 to t.n - 1 do
           if
             t.comp.(v) = t.comp.(t.origin.(m))
             && not (Dsim.Bitset.mem t.delivered (slot t ~node:v m))
           then add t "node %d never delivered m%d (condition (a))" v (key m)
         done);
  List.rev t.findings

let check ~dual trace =
  let t = create ~dual in
  Dsim.Trace.iter trace (on_entry t);
  finish t
