(* Message provenance: which deliveries causally precede each node's
   first receipt of each MMB message.

   Derived online from the MAC event stream (Dsim.Trace.subscribe).  A
   node first "knows" message m either at the environment injection
   ([Arrive], the DAG root) or at its first MAC receipt ([Rcv]); the
   receipt's causal parent is the broadcast instance that carried it,
   whose sender necessarily knew m strictly earlier.  Every non-root
   node therefore has exactly one incoming edge pointing at an
   already-recorded vertex — the provenance graph is a forest per
   message, acyclic by construction (the test suite checks anyway).

   Each receipt splits the message's journey into the Figure-1
   completion-time components:

     queue = bcast - src_ready   time m sat at the sender between the
                                 sender first knowing it and this
                                 instance's broadcast: protocol/MAC
                                 queueing plus frontier wait
     mac   = rcv - bcast         in-flight MAC latency, the
                                 Fack/Fprog-bounded part (progress
                                 starvation shows up here)

   and the per-message summary accumulates both along the causal path
   to the receipt with the latest time (the critical path).  Its
   completion and the nodes it reached come from the run's delivery
   ledger (Mmb.Problem), handed over by [attach]. *)

let schema = "mmb-provenance/1"

type receipt = {
  r_msg : int;
  r_node : int;
  r_time : float;
  r_inst : int;
  r_src : int option; (* None: instance's broadcast was never observed *)
  r_bcast : float;
  r_queue : float;
  r_mac : float;
  r_depth : int; (* causal hops from the root *)
  r_cum_queue : float; (* accumulated along the causal path *)
  r_cum_mac : float;
}

(* What a node knows once it has m, enough to extend the path. *)
type known = {
  k_time : float;
  k_depth : int;
  k_cum_queue : float;
  k_cum_mac : float;
}

type msg_state = {
  mutable origin : (int * float) option; (* root: Arrive node/time *)
  mutable rev_receipts : receipt list; (* reverse event order *)
}

type t = {
  n : int;
  mutable ledger : Mmb.Problem.tracker option;
  meta : (string * Dsim.Json.t) list;
  msgs : (int, msg_state) Hashtbl.t;
  known : (int * int, known) Hashtbl.t; (* (msg, node) -> first knowledge *)
  insts : (int, int * int * float) Hashtbl.t; (* uid -> (sender, msg, t) *)
}

let create ?(meta = []) ~n () =
  {
    n;
    ledger = None;
    meta;
    msgs = Hashtbl.create 16;
    known = Hashtbl.create 64;
    insts = Hashtbl.create 64;
  }

let msg_state t msg =
  match Hashtbl.find_opt t.msgs msg with
  | Some s -> s
  | None ->
      let s = { origin = None; rev_receipts = [] } in
      Hashtbl.replace t.msgs msg s;
      s

let on_entry t { Dsim.Trace.time; event } =
  match event with
  | Dsim.Trace.Arrive { node; msg } ->
      let s = msg_state t msg in
      if not (Hashtbl.mem t.known (msg, node)) then begin
        Hashtbl.replace t.known (msg, node)
          { k_time = time; k_depth = 0; k_cum_queue = 0.; k_cum_mac = 0. };
        if s.origin = None then s.origin <- Some (node, time)
      end
  | Dsim.Trace.Bcast { node; msg; instance } ->
      Hashtbl.replace t.insts instance (node, msg, time)
  | Dsim.Trace.Rcv { node; msg; instance } ->
      if not (Hashtbl.mem t.known (msg, node)) then begin
        let s = msg_state t msg in
        let src, bcast =
          match Hashtbl.find_opt t.insts instance with
          | Some (sender, _, tb) -> (Some sender, tb)
          | None -> (None, time)
        in
        let parent =
          match src with
          | Some sender -> Hashtbl.find_opt t.known (msg, sender)
          | None -> None
        in
        let src_ready, depth, cq, cm =
          match parent with
          | Some k -> (k.k_time, k.k_depth, k.k_cum_queue, k.k_cum_mac)
          | None -> (bcast, 0, 0., 0.)
        in
        let queue = Float.max 0. (bcast -. src_ready) in
        let mac = Float.max 0. (time -. bcast) in
        let r =
          {
            r_msg = msg;
            r_node = node;
            r_time = time;
            r_inst = instance;
            r_src = src;
            r_bcast = bcast;
            r_queue = queue;
            r_mac = mac;
            r_depth = depth + 1;
            r_cum_queue = cq +. queue;
            r_cum_mac = cm +. mac;
          }
        in
        s.rev_receipts <- r :: s.rev_receipts;
        Hashtbl.replace t.known (msg, node)
          {
            k_time = time;
            k_depth = r.r_depth;
            k_cum_queue = r.r_cum_queue;
            k_cum_mac = r.r_cum_mac;
          }
      end
  | Dsim.Trace.Deliver { node = _; msg } -> ignore (msg_state t msg)
  | Dsim.Trace.Ack _ | Dsim.Trace.Abort _ -> ()

let attach t ledger trace =
  t.ledger <- Some ledger;
  Dsim.Trace.subscribe trace (fun e -> on_entry t e)

(* --- Accessors (tests, breakdown tooling) --------------------------------- *)

let receipts t msg =
  match Hashtbl.find_opt t.msgs msg with
  | None -> []
  | Some s -> List.rev s.rev_receipts

let root t msg =
  match Hashtbl.find_opt t.msgs msg with None -> None | Some s -> s.origin

let messages t = Dsim.Tbl.sorted_keys ~cmp:Int.compare t.msgs

(* --- Export ---------------------------------------------------------------- *)

let num f = Dsim.Json.Number f
let int i = num (float_of_int i)
let opt = function Some f -> num f | None -> Dsim.Json.Null

let receipt_json r =
  Dsim.Json.Obj
    [
      ("kind", Dsim.Json.String "receipt");
      ("msg", int r.r_msg);
      ("node", int r.r_node);
      ("t", num r.r_time);
      ("inst", int r.r_inst);
      ("src", (match r.r_src with Some s -> int s | None -> Dsim.Json.Null));
      ("bcast", num r.r_bcast);
      ("queue", num r.r_queue);
      ("mac", num r.r_mac);
      ("depth", int r.r_depth);
    ]

let msg_json t msg s =
  let receipts = List.rev s.rev_receipts in
  (* Critical path: the receipt with the latest time (first such in event
     order on ties) carries the accumulated queue/mac split of the
     message's completion. *)
  let crit =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some best when best.r_time >= r.r_time -> acc
        | _ -> Some r)
      None receipts
  in
  let arrive = match s.origin with Some (_, ta) -> Some ta | None -> None in
  let complete, reached =
    match t.ledger with
    | Some l ->
        ( Mmb.Problem.message_completion_time l ~msg,
          List.length
            (List.filter
               (fun node -> Mmb.Problem.has l ~node ~msg)
               (List.init t.n Fun.id)) )
    | None -> (None, 0)
  in
  Dsim.Json.Obj
    [
      ("kind", Dsim.Json.String "msg");
      ("msg", int msg);
      ( "origin",
        match s.origin with Some (u, _) -> int u | None -> Dsim.Json.Null );
      ("arrive", opt arrive);
      ("complete", opt complete);
      ("receipts", int (List.length receipts));
      ("reached", int reached);
      ( "latency",
        match (arrive, complete) with
        | Some a, Some c -> num (c -. a)
        | _ -> Dsim.Json.Null );
      ( "max_depth",
        int (match crit with Some r -> r.r_depth | None -> 0) );
      ("crit_queue", opt (Option.map (fun r -> r.r_cum_queue) crit));
      ("crit_mac", opt (Option.map (fun r -> r.r_cum_mac) crit));
    ]

let jsonl t =
  let meta =
    let fixed = [ "kind"; "schema"; "n" ] in
    Dsim.Json.Obj
      (("kind", Dsim.Json.String "meta")
      :: ("schema", Dsim.Json.String schema)
      :: ("n", int t.n)
      :: List.filter (fun (k, _) -> not (List.mem k fixed)) t.meta)
  in
  let lines =
    Dsim.Tbl.sorted_fold ~cmp:Int.compare
      (fun msg s acc ->
        let root =
          match s.origin with
          | Some (node, time) ->
              [
                Dsim.Json.Obj
                  [
                    ("kind", Dsim.Json.String "root");
                    ("msg", int msg);
                    ("node", int node);
                    ("t", num time);
                  ];
              ]
          | None -> []
        in
        acc
        @ [ msg_json t msg s ]
        @ root
        @ List.rev_map receipt_json s.rev_receipts)
      t.msgs [ meta ]
  in
  List.map Dsim.Json.to_string lines

let to_file t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (jsonl t))

(* --- Validation ------------------------------------------------------------ *)

let kinds = [ "meta"; "msg"; "root"; "receipt" ]

let validate_string text =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty provenance file"
  | first :: _ ->
      let* doc = Dsim.Json.parse first in
      let* got = Dsim.Json.member doc "schema" in
      let* got = Dsim.Json.to_str got in
      if got <> schema then
        Error
          (Printf.sprintf "schema mismatch: expected %S, got %S" schema got)
      else
        let rec check i = function
          | [] -> Ok i
          | line :: rest ->
              let* doc =
                Result.map_error
                  (fun e -> Printf.sprintf "line %d: %s" (i + 1) e)
                  (Dsim.Json.parse line)
              in
              let* kind = Dsim.Json.member doc "kind" in
              let* kind = Dsim.Json.to_str kind in
              if List.mem kind kinds then check (i + 1) rest
              else Error (Printf.sprintf "line %d: unknown kind %S" (i + 1) kind)
        in
        check 0 lines

let validate_file ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text -> validate_string text
