(* Chrome-trace-event (Perfetto / catapult) export.

   The writer streams serialized event objects into a buffer; [to_string]
   wraps them in the JSON-object trace container
   `{"traceEvents":[...],"displayTimeUnit":"ms","otherData":{...}}` that
   both chrome://tracing and https://ui.perfetto.dev load directly.

   Determinism contract: every emitter serializes through Dsim.Json (one
   canonical float rendering) in call order, and nothing here reads
   clocks, so a deterministic event source produces byte-identical trace
   files.  Virtual simulation time is mapped 1 time unit -> 1000 us
   (1 ms), which keeps Perfetto's default "ms" display unit aligned with
   model time. *)

let schema = "mmb-trace/1"

(* One virtual time unit rendered as this many trace microseconds. *)
let us_per_unit = 1000.

type t = { buf : Buffer.t; mutable count : int }

let create () = { buf = Buffer.create 4096; count = 0 }

let event_count t = t.count

let num f = Dsim.Json.Number f
let str s = Dsim.Json.String s
let int i = num (float_of_int i)

let emit t fields =
  if t.count > 0 then Buffer.add_char t.buf ',';
  Buffer.add_string t.buf (Dsim.Json.to_string (Dsim.Json.Obj fields));
  t.count <- t.count + 1

let ts_of time = time *. us_per_unit

let base ~ph ~pid ~tid ~ts name =
  [
    ("name", str name);
    ("ph", str ph);
    ("ts", num (ts_of ts));
    ("pid", int pid);
    ("tid", int tid);
  ]

let with_opt ?cat ?args fields =
  let fields =
    match cat with None -> fields | Some c -> fields @ [ ("cat", str c) ]
  in
  match args with
  | None | Some [] -> fields
  | Some kvs -> fields @ [ ("args", Dsim.Json.Obj kvs) ]

(* --- Metadata ------------------------------------------------------------- *)

let process_name t ~pid name =
  emit t
    [
      ("name", str "process_name");
      ("ph", str "M");
      ("pid", int pid);
      ("tid", int 0);
      ("args", Dsim.Json.Obj [ ("name", str name) ]);
    ]

let thread_name t ~pid ~tid name =
  emit t
    [
      ("name", str "thread_name");
      ("ph", str "M");
      ("pid", int pid);
      ("tid", int tid);
      ("args", Dsim.Json.Obj [ ("name", str name) ]);
    ]

(* --- Slices, instants, counters ------------------------------------------- *)

let complete t ?cat ?args ~pid ~tid ~ts ~dur name =
  emit t
    (with_opt ?cat ?args
       (base ~ph:"X" ~pid ~tid ~ts name
       @ [ ("dur", num (ts_of dur)) ]))

let instant t ?cat ?args ~pid ~tid ~ts name =
  emit t
    (with_opt ?cat ?args
       (base ~ph:"i" ~pid ~tid ~ts name @ [ ("s", str "t") ]))

let counter t ~pid ~ts name values =
  emit t
    [
      ("name", str name);
      ("ph", str "C");
      ("ts", num (ts_of ts));
      ("pid", int pid);
      ("tid", int 0);
      ("args", Dsim.Json.Obj (List.map (fun (k, v) -> (k, num v)) values));
    ]

(* --- Flows and async spans ------------------------------------------------ *)

let flow_start t ?cat ~pid ~tid ~ts ~id name =
  emit t (with_opt ?cat (base ~ph:"s" ~pid ~tid ~ts name @ [ ("id", int id) ]))

let flow_finish t ?cat ~pid ~tid ~ts ~id name =
  emit t
    (with_opt ?cat
       (base ~ph:"f" ~pid ~tid ~ts name
       @ [ ("id", int id); ("bp", str "e") ]))

let async_begin t ?(cat = "span") ?args ~pid ~ts ~id name =
  emit t
    (with_opt ~cat ?args (base ~ph:"b" ~pid ~tid:0 ~ts name @ [ ("id", int id) ]))

let async_end t ?(cat = "span") ?args ~pid ~ts ~id name =
  emit t
    (with_opt ~cat ?args (base ~ph:"e" ~pid ~tid:0 ~ts name @ [ ("id", int id) ]))

(* --- Container ------------------------------------------------------------- *)

let to_string ?(meta = []) t =
  let other =
    Dsim.Json.Obj
      (("schema", str schema)
      :: ("time_unit", str "1 virtual time unit = 1ms")
      :: meta)
  in
  String.concat ""
    [
      {|{"traceEvents":[|};
      Buffer.contents t.buf;
      {|],"displayTimeUnit":"ms","otherData":|};
      Dsim.Json.to_string other;
      "}";
    ]

let write_file ?meta t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ?meta t);
      output_char oc '\n')

(* --- Validation (the verify.sh trace smoke gate) -------------------------- *)

let validate_string text =
  let ( let* ) = Result.bind in
  let* doc = Dsim.Json.parse text in
  let* events = Dsim.Json.member doc "traceEvents" in
  let* events = Dsim.Json.to_list events in
  let* other = Dsim.Json.member doc "otherData" in
  let* got = Dsim.Json.member other "schema" in
  let* got = Dsim.Json.to_str got in
  if got <> schema then
    Error (Printf.sprintf "schema mismatch: expected %S, got %S" schema got)
  else
    let rec check i = function
      | [] -> Ok i
      | e :: rest ->
          let field name =
            match Dsim.Json.member_opt e name with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "event %d: missing %S" i name)
          in
          let* _ = field "ph" in
          let* _ = field "pid" in
          let* _ = field "name" in
          check (i + 1) rest
    in
    check 0 events

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let validate_file ~path =
  match read_file path with
  | exception Sys_error e -> Error e
  | text -> validate_string text

(* --- The simulation collector --------------------------------------------- *)

(* Track layout:
     pid 1  "simulation"  one thread per node; MAC instance slices
                          (bcast -> ack/abort) live on the sender's
                          track, rcv/arrive/deliver are zero-width
                          slices so flow arrows have anchors
     pid 2  "messages"    one async span per MMB message, Arrive ->
                          the Deliver that completes it, by the
                          run's delivery ledger
   Flow arrows bind a Bcast to each Rcv it caused (one fresh flow id per
   (instance, receiver) pair, so fan-out renders as a fan, not a chain). *)

let sim_pid = 1
let msg_pid = 2

type open_inst = { i_node : int; i_msg : int; i_t0 : float }

module Sim = struct
  type collector = {
    w : t;
    insts : (int, open_inst) Hashtbl.t; (* live instance uid -> open slice *)
    ended : Dsim.Int_table.set Dsim.Int_table.t; (* messages whose span ended *)
    named : (int, unit) Hashtbl.t; (* node tracks already labelled *)
    mutable flow_ids : int;
    mutable total_delivers : int;
    mutable last_time : float;
  }

  let create ?(name = "simulation") () =
    let w = create () in
    process_name w ~pid:sim_pid name;
    process_name w ~pid:msg_pid "messages";
    {
      w;
      insts = Hashtbl.create 64;
      ended = Dsim.Int_table.create_set ();
      named = Hashtbl.create 64;
      flow_ids = 0;
      total_delivers = 0;
      last_time = 0.;
    }

  (* Node tracks are labelled lazily on first use: event order is
     deterministic, so the labelling order is too, and million-node
     topologies don't pay for n metadata records up front. *)
  let node_track c node =
    if not (Hashtbl.mem c.named node) then begin
      Hashtbl.replace c.named node ();
      thread_name c.w ~pid:sim_pid ~tid:node (Printf.sprintf "node %d" node)
    end;
    node

  let mname msg = Printf.sprintf "m%d" msg

  let mark c ~node ~time ?args name =
    (* Zero-width complete slice rather than an instant: Perfetto anchors
       flow arrows on slices only. *)
    complete c.w ~cat:"event" ?args ~pid:sim_pid ~tid:(node_track c node)
      ~ts:time ~dur:0. name

  let close_inst c ~instance ~node ~msg ~time ~how =
    let t0, tid =
      match Hashtbl.find_opt c.insts instance with
      | Some inst -> (inst.i_t0, inst.i_node)
      | None -> (time, node)
    in
    Hashtbl.remove c.insts instance;
    complete c.w ~cat:"inst"
      ~args:[ ("end", str how) ]
      ~pid:sim_pid ~tid:(node_track c tid) ~ts:t0 ~dur:(time -. t0)
      (Printf.sprintf "i%d %s" instance (mname msg))

  let on_entry c ledger { Dsim.Trace.time; event } =
    if time > c.last_time then c.last_time <- time;
    match event with
    | Dsim.Trace.Arrive { node; msg } ->
        mark c ~node ~time (Printf.sprintf "arrive %s" (mname msg));
        async_begin c.w ~cat:"mmb" ~pid:msg_pid ~ts:time ~id:msg
          ~args:[ ("origin", int node) ]
          (mname msg)
    | Dsim.Trace.Deliver { node; msg } ->
        mark c ~node ~time (Printf.sprintf "deliver %s" (mname msg));
        c.total_delivers <- c.total_delivers + 1;
        counter c.w ~pid:sim_pid ~ts:time "frontier"
          [ ("delivers", float_of_int c.total_delivers) ];
        (* The ledger took this delivery first: the first entry that
           finds the message complete is the completing one. *)
        if
          Mmb.Problem.completed ledger ~msg
          && not (Dsim.Int_table.mem c.ended msg)
        then begin
          Dsim.Int_table.add c.ended msg;
          async_end c.w ~cat:"mmb" ~pid:msg_pid ~ts:time ~id:msg (mname msg)
        end
    | Dsim.Trace.Bcast { node; msg; instance } ->
        ignore (node_track c node);
        Hashtbl.replace c.insts instance
          { i_node = node; i_msg = msg; i_t0 = time }
    | Dsim.Trace.Rcv { node; msg; instance } -> (
        mark c ~node ~time
          (Printf.sprintf "rcv %s i%d" (mname msg) instance);
        match Hashtbl.find_opt c.insts instance with
        | None -> ()
        | Some inst ->
            let id = c.flow_ids in
            c.flow_ids <- id + 1;
            let name = Printf.sprintf "i%d %s" instance (mname msg) in
            flow_start c.w ~cat:"mac" ~pid:sim_pid ~tid:inst.i_node
              ~ts:inst.i_t0 ~id name;
            flow_finish c.w ~cat:"mac" ~pid:sim_pid ~tid:node ~ts:time ~id
              name)
    | Dsim.Trace.Ack { node; msg; instance } ->
        close_inst c ~instance ~node ~msg ~time ~how:"acked"
    | Dsim.Trace.Abort { node; msg; instance } ->
        close_inst c ~instance ~node ~msg ~time ~how:"aborted"

  let attach c ledger trace =
    Dsim.Trace.subscribe trace (fun e -> on_entry c ledger e)

  (* Instances still open at the end of the run (never acked or aborted)
     render as slices reaching the last observed time, closed in sorted
     uid order so the file stays deterministic. *)
  let finish c =
    Dsim.Tbl.sorted_iter ~cmp:Int.compare
      (fun instance inst ->
        complete c.w ~cat:"inst"
          ~args:[ ("end", str "open") ]
          ~pid:sim_pid ~tid:inst.i_node ~ts:inst.i_t0
          ~dur:(c.last_time -. inst.i_t0)
          (Printf.sprintf "i%d %s" instance (mname inst.i_msg)))
      c.insts;
    Hashtbl.reset c.insts;
    c.w
end
