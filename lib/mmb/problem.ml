type assignment = (int * int) list

let singleton rng ~n ~k =
  if k > n then invalid_arg "Problem.singleton: k > n";
  let nodes = Array.init n Fun.id in
  Dsim.Rng.shuffle rng nodes;
  List.init k (fun i -> (nodes.(i), i))

let random rng ~n ~k = List.init k (fun i -> (Dsim.Rng.int rng n, i))

let all_at ~node ~k = List.init k (fun i -> (node, i))

let spread_line ~k = List.init k (fun i -> (i, i))

type timed_assignment = (float * int * int) list

let at_time_zero assignment =
  List.map (fun (node, msg) -> (0., node, msg)) assignment

let poisson_arrivals rng ~n ~k ~rate =
  if rate <= 0. then invalid_arg "Problem.poisson_arrivals: need rate > 0";
  let clock = ref 0. in
  List.init k (fun msg ->
      let u = Float.max 1e-12 (Dsim.Rng.float rng 1.) in
      clock := !clock +. (-.log u /. rate);
      (!clock, Dsim.Rng.int rng n, msg))

let staggered_arrivals ~node ~k ~gap =
  if gap < 0. then invalid_arg "Problem.staggered_arrivals: need gap >= 0";
  List.init k (fun msg -> (float_of_int msg *. gap, node, msg))

type per_message = {
  required : bool array; (* nodes that must deliver *)
  mutable remaining : int;
  delivered : bool array;
  mutable finish_time : float option;
  arrival_time : float;
}

type tracker = {
  messages : (int, per_message) Hashtbl.t;
  order : int list; (* message ids in arrival-list order *)
  k : int;
  mutable outstanding : int; (* messages not yet fully delivered *)
  mutable finish : float option;
  mutable delivered_total : int;
  mutable duplicates : int;
  mutable spurious : int;
}

let tracker_timed ~dual timed =
  let g = Graphs.Dual.reliable dual in
  let n = Graphs.Graph.n g in
  let comp = Graphs.Bfs.components g in
  let messages = Hashtbl.create 16 in
  List.iter
    (fun (time, node, msg) ->
      if node < 0 || node >= n then
        invalid_arg "Problem.tracker: origin out of range";
      if time < 0. then invalid_arg "Problem.tracker: negative arrival time";
      if Hashtbl.mem messages msg then
        invalid_arg "Problem.tracker: duplicate message id in assignment";
      let required = Array.map (fun c -> c = comp.(node)) comp in
      let remaining = Array.fold_left (fun a b -> if b then a + 1 else a) 0 required in
      Hashtbl.replace messages msg
        {
          required;
          remaining;
          delivered = Array.make n false;
          finish_time = None;
          arrival_time = time;
        })
    timed;
  {
    messages;
    order = List.map (fun (_, _, msg) -> msg) timed;
    k = List.length timed;
    outstanding = Hashtbl.length messages;
    finish = None;
    delivered_total = 0;
    duplicates = 0;
    spurious = 0;
  }

let tracker ~dual assignment = tracker_timed ~dual (at_time_zero assignment)

let k t = t.k

let on_deliver t ~node ~msg ~time =
  match Hashtbl.find_opt t.messages msg with
  | None -> t.spurious <- t.spurious + 1
  | Some pm ->
      if pm.delivered.(node) then t.duplicates <- t.duplicates + 1
      else begin
        pm.delivered.(node) <- true;
        t.delivered_total <- t.delivered_total + 1;
        if pm.required.(node) then begin
          pm.remaining <- pm.remaining - 1;
          if pm.remaining = 0 then begin
            pm.finish_time <- Some time;
            t.outstanding <- t.outstanding - 1;
            if t.outstanding = 0 then t.finish <- Some time
          end
        end
        else t.spurious <- t.spurious + 1
      end

let complete t = t.outstanding = 0
let completion_time t = t.finish

let message_completion_time t ~msg =
  match Hashtbl.find_opt t.messages msg with
  | None -> None
  | Some pm -> pm.finish_time

let message_latency t ~msg =
  match Hashtbl.find_opt t.messages msg with
  | None -> None
  | Some pm -> (
      match pm.finish_time with
      | None -> None
      | Some finish -> Some (finish -. pm.arrival_time))

let latencies t =
  List.filter_map
    (fun msg -> Option.map (fun l -> (msg, l)) (message_latency t ~msg))
    t.order

let mean_latency = function
  | [] -> None
  | ls ->
      Some
        (List.fold_left (fun a (_, l) -> a +. l) 0. ls
        /. float_of_int (List.length ls))

let delivered_count t = t.delivered_total
let duplicate_deliveries t = t.duplicates
let spurious_deliveries t = t.spurious
