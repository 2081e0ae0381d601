(* The ledger takes every delivery of a run: hot rules H1/H2/H4 apply. *)
[@@@mmb.hot]

type assignment = (int * int) list

let singleton rng ~n ~k =
  if k > n then invalid_arg "Problem.singleton: k > n";
  let nodes = Array.init n Fun.id in
  Dsim.Rng.shuffle rng nodes;
  List.init k (fun i -> (nodes.(i), i))
[@@mmb.alloc_ok "input generator, before the run"]

let random rng ~n ~k = List.init k (fun i -> (Dsim.Rng.int rng n, i))
[@@mmb.alloc_ok "input generator, before the run"]

let all_at ~node ~k = List.init k (fun i -> (node, i))
[@@mmb.alloc_ok "input generator, before the run"]

type timed_assignment = (float * int * int) list

let at_time_zero assignment =
  List.map (fun (node, msg) -> (0., node, msg)) assignment
[@@mmb.alloc_ok "input generator, before the run"]

let poisson_arrivals rng ~n ~k ~rate =
  if rate <= 0. then invalid_arg "Problem.poisson_arrivals: need rate > 0";
  let clock = ref 0. in
  List.init k (fun msg ->
      let u = Float.max 1e-12 (Dsim.Rng.float rng 1.) in
      clock := !clock +. (-.log u /. rate);
      (!clock, Dsim.Rng.int rng n, msg))
[@@mmb.alloc_ok "input generator, before the run"]

let staggered_arrivals ~node ~k ~gap =
  if gap < 0. then invalid_arg "Problem.staggered_arrivals: need gap >= 0";
  List.init k (fun msg -> (float_of_int msg *. gap, node, msg))
[@@mmb.alloc_ok "input generator, before the run"]

(* The delivery ledger: message numbers ([Dsim.Int_table]) index the
   columns, and the required sets cost the component array alone. *)
type tracker = {
  n : int;
  comp : int array; (* G-component of each node *)
  numbers : Dsim.Int_table.map Dsim.Int_table.t;
  mutable dense : int; (* ids below it number themselves *)
  mutable origin : int array; (* -1 until the message arrives *)
  mutable arrival : float array;
  mutable remaining : int array; (* required nodes yet to deliver *)
  mutable completion : float array; (* nan until complete *)
  bits : Dsim.Bitset.t; (* [number * n + node]: the node has it *)
  mutable outstanding : int; (* arrived messages not yet complete *)
  mutable finish : float; (* when [outstanding] last fell to 0, or nan *)
  mutable delivered : int;
  mutable duplicates : int;
  mutable spurious : int;
}

(* The number of [msg], numbering it first if it has none, with room
   for it in every column. *)
let number t msg =
  let m = Dsim.Int_table.number t.numbers msg in
  if m = Array.length t.origin then begin
    let grow a fill =
      let b = Array.make ((2 * m) + 8) fill in
      Array.blit a 0 b 0 m;
      b
    in
    t.origin <- grow t.origin (-1);
    t.arrival <- grow t.arrival nan;
    t.remaining <- grow t.remaining 0;
    t.completion <- grow t.completion nan
  end;
  if m = msg && m = t.dense then t.dense <- m + 1;
  m

(* The number of [msg], or -1.  The assignment builders' ids 0..k-1
   number themselves, so the common lookup skips the table. *)
let find t msg =
  if msg >= 0 && msg < t.dense then msg else Dsim.Int_table.find t.numbers msg

let expect t ~msg = ignore (number t msg)

let arrive t ~node ~msg ~time =
  let m = number t msg in
  if t.origin.(m) >= 0 then false
  else begin
    (* The origin's component, less the nodes an audited stream saw
       deliver before the arrival. *)
    let c = t.comp.(node) and remaining = ref 0 in
    for v = 0 to t.n - 1 do
      if t.comp.(v) = c && not (Dsim.Bitset.mem t.bits ((m * t.n) + v)) then
        incr remaining
    done;
    t.origin.(m) <- node;
    t.arrival.(m) <- time;
    t.remaining.(m) <- !remaining;
    if !remaining = 0 then t.completion.(m) <- time
    else t.outstanding <- t.outstanding + 1;
    true
  end

(* 1 for a first delivery, 0 for a repeat, -1 for an unknown message. *)
let record t ~node ~msg ~time =
  if node < 0 || node >= t.n then invalid_arg "Problem.deliver: bad node";
  let m = find t msg in
  if m < 0 then (
    t.spurious <- t.spurious + 1;
    -1)
  else if Dsim.Bitset.test_and_add t.bits ((m * t.n) + node) then 0
  else begin
    t.delivered <- t.delivered + 1;
    let o = t.origin.(m) in
    if o >= 0 then
      if t.comp.(node) <> t.comp.(o) then t.spurious <- t.spurious + 1
      else begin
        let r = t.remaining.(m) - 1 in
        t.remaining.(m) <- r;
        if r = 0 then begin
          t.completion.(m) <- time;
          t.outstanding <- t.outstanding - 1;
          if t.outstanding = 0 then t.finish <- time
        end
      end;
    1
  end

let deliver t ~node ~msg ~time = record t ~node ~msg ~time = 1

let has t ~node ~msg =
  let m = find t msg in
  m >= 0 && Dsim.Bitset.mem t.bits ((m * t.n) + node)

let on_deliver t ~node ~msg ~time =
  if record t ~node ~msg ~time = 0 then t.duplicates <- t.duplicates + 1

let on_entry t { Dsim.Trace.time; event } =
  match event with
  | Dsim.Trace.Arrive { node; msg } -> ignore (arrive t ~node ~msg ~time)
  | Dsim.Trace.Deliver { node; msg } -> on_deliver t ~node ~msg ~time
  | Dsim.Trace.Bcast _ | Dsim.Trace.Rcv _ | Dsim.Trace.Ack _
  | Dsim.Trace.Abort _ ->
      ()

let tracker_timed ~dual timed =
  let g = Graphs.Dual.reliable dual in
  let n = Graphs.Graph.n g in
  let t =
    {
      n;
      comp = Graphs.Bfs.components g;
      numbers = Dsim.Int_table.create_map ();
      dense = 0;
      origin = [||];
      arrival = [||];
      remaining = [||];
      completion = [||];
      bits = Dsim.Bitset.create ~width:(List.length timed * n);
      outstanding = 0;
      finish = nan;
      delivered = 0;
      duplicates = 0;
      spurious = 0;
    }
  in
  List.iter
    (fun (time, node, msg) ->
      if node < 0 || node >= n then
        invalid_arg "Problem.tracker: origin out of range";
      if time < 0. then invalid_arg "Problem.tracker: negative arrival time";
      if not (arrive t ~node ~msg ~time) then
        invalid_arg "Problem.tracker: duplicate message id in assignment")
    timed;
  t

let tracker ~dual assignment = tracker_timed ~dual (at_time_zero assignment)

let complete t = t.outstanding = 0

let completion_time t = if Float.is_nan t.finish then None else Some t.finish

(* Whether message number [m] has arrived and reached its component. *)
let covered t m = t.origin.(m) >= 0 && t.remaining.(m) = 0

let origin t ~msg =
  let m = find t msg in
  if m < 0 then -1 else t.origin.(m)

let completed t ~msg =
  let m = find t msg in
  m >= 0 && covered t m

let message_completion_time t ~msg =
  let m = find t msg in
  if m >= 0 && covered t m then Some t.completion.(m) else None

let latencies t =
  let rec from m acc =
    if m < 0 then acc
    else
      from (m - 1)
        (if covered t m then
           (Dsim.Int_table.key t.numbers m, t.completion.(m) -. t.arrival.(m))
           :: acc
         else acc)
  in
  from (Dsim.Int_table.length t.numbers - 1) []

let mean_latency = function
  | [] -> None
  | ls ->
      Some
        (List.fold_left (fun a (_, l) -> a +. l) 0. ls
        /. float_of_int (List.length ls))

let iter_missing t f =
  let key = Dsim.Int_table.key t.numbers in
  List.init (Dsim.Int_table.length t.numbers) Fun.id
  |> List.filter (fun m -> t.origin.(m) >= 0 && t.remaining.(m) > 0)
  |> List.sort (fun a b -> Int.compare (key a) (key b))
  |> List.iter (fun m ->
         let c = t.comp.(t.origin.(m)) in
         for v = 0 to t.n - 1 do
           if t.comp.(v) = c && not (Dsim.Bitset.mem t.bits ((m * t.n) + v))
           then f ~node:v ~msg:(key m)
         done)

let delivered_count t = t.delivered
let duplicate_deliveries t = t.duplicates
let spurious_deliveries t = t.spurious
