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

(* One line, read with {!Json.parse}: a torn or garbled line is a parse
   error, never an entry with a wrong value. *)
let parse_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok json -> (
      (* [None] when absent; a present value [conv] refuses is an error
         naming the field. *)
      let field key conv =
        match Json.member_opt json key with
        | None -> Ok None
        | Some v ->
            Result.map Option.some
              (Result.map_error (Printf.sprintf "field %S: %s" key) (conv v))
      in
      let ( let* ) = Result.bind in
      let* time = field "t" Json.to_float in
      let* kind = field "e" Json.to_str in
      let* node = field "node" Json.to_int in
      let* msg = field "msg" Json.to_int in
      match (time, kind, node, msg) with
      | Some time, Some kind, Some node, Some msg -> (
          let with_inst make =
            match field "inst" Json.to_int with
            | Ok (Some instance) -> Ok { Trace.time; event = make instance }
            | Ok None -> Error "missing \"inst\""
            | Error e -> Error e
          in
          match kind with
          | "arrive" -> Ok { Trace.time; event = Trace.Arrive { node; msg } }
          | "deliver" -> Ok { Trace.time; event = Trace.Deliver { node; msg } }
          | "bcast" ->
              with_inst (fun instance -> Trace.Bcast { node; msg; instance })
          | "rcv" ->
              with_inst (fun instance -> Trace.Rcv { node; msg; instance })
          | "ack" ->
              with_inst (fun instance -> Trace.Ack { node; msg; instance })
          | "abort" ->
              with_inst (fun instance -> Trace.Abort { node; msg; instance })
          | other -> Error (Printf.sprintf "unknown event kind %S" other))
      | _ -> Error "missing required field")

(* --- Streamed-to-disk sink ------------------------------------------------ *)

(* A subscriber that writes each entry as it is recorded, so a run's
   trace lands on disk without the trace object retaining anything (a
   disabled trace, keeping no entry, plus one of these).  Buffered by the
   out_channel; [sink_close] flushes. *)
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

(* Entries are numbered from 1 in list order, as [of_jsonl] numbers the
   non-blank lines it parsed them from.  [broadcast] maps an instance to
   its bcast's time. *)
let check ~n entries =
  let broadcast = Hashtbl.create 64 in
  let rec go line = function
    | [] -> Ok ()
    | { Trace.time; event } :: rest -> (
        let node, _, inst = fields_of_event event in
        if not (Float.is_finite time) then
          Error (Printf.sprintf "line %d: time %g is not finite" line time)
        else if node < 0 || node >= n then
          Error
            (Printf.sprintf "line %d: node %d is not in the %d-node network"
               line node n)
        else
          match (event, inst) with
          | Trace.Bcast _, Some i ->
              Hashtbl.replace broadcast i time;
              go (line + 1) rest
          | _, Some i -> (
              match Hashtbl.find_opt broadcast i with
              | None ->
                  Error
                    (Printf.sprintf "line %d: instance %d was never broadcast"
                       line i)
              | Some start when time < start ->
                  Error
                    (Printf.sprintf
                       "line %d: time %g is before instance %d's bcast at %g"
                       line time i start)
              | Some _ -> go (line + 1) rest)
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
