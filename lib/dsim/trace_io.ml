let kind_of_event = function
  | Trace.Arrive _ -> "arrive"
  | Trace.Deliver _ -> "deliver"
  | Trace.Bcast _ -> "bcast"
  | Trace.Rcv _ -> "rcv"
  | Trace.Ack _ -> "ack"
  | Trace.Abort _ -> "abort"

let fields_of_event = function
  | Trace.Arrive { node; msg } | Trace.Deliver { node; msg } ->
      (node, msg, None)
  | Trace.Bcast { node; msg; instance }
  | Trace.Rcv { node; msg; instance }
  | Trace.Ack { node; msg; instance }
  | Trace.Abort { node; msg; instance } ->
      (node, msg, Some instance)

let entry_to_json { Trace.time; event } =
  let node, msg, inst = fields_of_event event in
  match inst with
  | None ->
      Printf.sprintf {|{"t":%.17g,"e":"%s","node":%d,"msg":%d}|} time
        (kind_of_event event) node msg
  | Some i ->
      Printf.sprintf {|{"t":%.17g,"e":"%s","node":%d,"msg":%d,"inst":%d}|}
        time (kind_of_event event) node msg i

let to_jsonl trace =
  let buf = Buffer.create 4096 in
  Trace.iter trace (fun entry ->
      Buffer.add_string buf (entry_to_json entry);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let write_file trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl trace))

(* A minimal parser for exactly the object shape we emit: string values
   have no escapes, keys are known. *)
let parse_line line =
  let find_field key conv =
    let needle = Printf.sprintf {|"%s":|} key in
    let nlen = String.length needle in
    let rec search i =
      if i + nlen > String.length line then None
      else if String.sub line i nlen = needle then begin
        let start = i + nlen in
        let stop = ref start in
        while
          !stop < String.length line
          && not (List.mem line.[!stop] [ ','; '}' ])
        do
          incr stop
        done;
        conv (String.sub line start (!stop - start))
      end
      else search (i + 1)
    in
    search 0
  in
  let number s = float_of_string_opt (String.trim s) in
  let integer s = int_of_string_opt (String.trim s) in
  let unquote s =
    let s = String.trim s in
    if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"'
    then Some (String.sub s 1 (String.length s - 2))
    else None
  in
  match
    ( find_field "t" number,
      find_field "e" unquote,
      find_field "node" integer,
      find_field "msg" integer )
  with
  | Some time, Some kind, Some node, Some msg -> (
      let inst () =
        match find_field "inst" integer with
        | Some i -> Ok i
        | None -> Error "missing \"inst\""
      in
      let with_inst make =
        Result.map (fun instance -> { Trace.time; event = make instance })
          (inst ())
      in
      match kind with
      | "arrive" -> Ok { Trace.time; event = Trace.Arrive { node; msg } }
      | "deliver" -> Ok { Trace.time; event = Trace.Deliver { node; msg } }
      | "bcast" -> with_inst (fun instance -> Trace.Bcast { node; msg; instance })
      | "rcv" -> with_inst (fun instance -> Trace.Rcv { node; msg; instance })
      | "ack" -> with_inst (fun instance -> Trace.Ack { node; msg; instance })
      | "abort" ->
          with_inst (fun instance -> Trace.Abort { node; msg; instance })
      | other -> Error (Printf.sprintf "unknown event kind %S" other))
  | _ -> Error "missing required field"

let entry_of_line = parse_line

(* --- Streamed-to-disk sink ------------------------------------------------ *)

(* A subscriber that writes each entry as it is recorded, so a run's
   trace lands on disk without the trace object retaining anything: the
   mega-path configuration is a disabled trace (no ring, no list) plus
   one of these.  Buffered by the out_channel; [sink_close] flushes. *)
type sink = { oc : out_channel; mutable written : int; mutable closed : bool }

let sink_create ~path = { oc = open_out path; written = 0; closed = false }

let sink_write s entry =
  output_string s.oc (entry_to_json entry);
  output_char s.oc '\n';
  s.written <- s.written + 1

let sink_written s = s.written

let sink_close s =
  if not s.closed then begin
    s.closed <- true;
    close_out s.oc
  end

let stream_file trace ~path =
  let s = sink_create ~path in
  Trace.subscribe trace (sink_write s);
  s

(* Entries are numbered from 1 in list order, as [of_jsonl] numbers the
   non-blank lines it parsed them from. *)
let check ~n entries =
  let broadcast = Hashtbl.create 64 in
  let rec go line = function
    | [] -> Ok ()
    | { Trace.event; _ } :: rest -> (
        let node, _, inst = fields_of_event event in
        if node < 0 || node >= n then
          Error
            (Printf.sprintf "line %d: node %d is not in the %d-node network"
               line node n)
        else
          match (event, inst) with
          | Trace.Bcast _, Some i ->
              Hashtbl.replace broadcast i ();
              go (line + 1) rest
          | _, Some i when not (Hashtbl.mem broadcast i) ->
              Error
                (Printf.sprintf "line %d: instance %d was never broadcast" line
                   i)
          | _ -> go (line + 1) rest)
  in
  go 1 entries

let of_jsonl text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go acc index = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line line with
        | Ok entry -> go (entry :: acc) (index + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" index e))
  in
  go [] 1 lines

let read_file ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_jsonl text
  | exception Sys_error e -> Error e
