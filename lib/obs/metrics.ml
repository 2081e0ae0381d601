let default_gamma = 2. ** 0.25

type counter = { mutable c : int }

type gauge = { mutable g : float }

type hist = {
  gamma : float;
  log_gamma : float;
  (* Bucket [lo + k] holds [counts.(k)] observations; [bounds.(k)] caches
     its lower edge [boundary h (lo + k)], and the last cell the upper
     edge of the top bucket.  Both cover the buckets observed so far and
     any between them. *)
  mutable lo : int;
  mutable counts : int array;
  mutable bounds : float array;
  mutable zeros : int; (* observations <= 0 *)
  mutable h_count : int;
  stats : float array; (* [| sum; min; max |], unboxed *)
}

type histogram = hist

type metric =
  | Counter of counter
  | Gauge of { gauge : gauge; volatile : bool }
  | Probe of { f : unit -> float; volatile : bool }
  | Hist of hist

type t = {
  by_name : (string, metric) Hashtbl.t;
  mutable multis : (bool * (unit -> (string * float) list)) list;
      (* (volatile, producer), registration order reversed *)
}

let create () = { by_name = Hashtbl.create 64; multis = [] }

let register t name m =
  match Hashtbl.find_opt t.by_name name with
  | None ->
      Hashtbl.replace t.by_name name m;
      m
  | Some existing -> (
      (* Same-kind re-registration returns the existing metric so call
         sites don't have to thread handles around. *)
      match (existing, m) with
      | Counter _, Counter _ | Gauge _, Gauge _ | Hist _, Hist _ -> existing
      | _ -> invalid_arg (Printf.sprintf "Metrics: %s registered twice" name))

let counter t name =
  match register t name (Counter { c = 0 }) with
  | Counter c -> c
  | _ -> assert false

let incr ?(by = 1) c = c.c <- c.c + by

let value c = c.c

let gauge t ?(volatile = false) name =
  match register t name (Gauge { gauge = { g = 0. }; volatile }) with
  | Gauge { gauge; _ } -> gauge
  | _ -> assert false

let set g v = g.g <- v

let set_max g v = if v > g.g then g.g <- v

let probe t ?(volatile = false) name f =
  ignore (register t name (Probe { f; volatile }))

let multi_probe t ?(volatile = false) f = t.multis <- (volatile, f) :: t.multis

let histogram t ?(gamma = default_gamma) name =
  if not (gamma > 1.) then invalid_arg "Metrics.histogram: gamma must be > 1";
  let h =
    {
      gamma;
      log_gamma = log gamma;
      lo = 0;
      counts = [||];
      bounds = [||];
      zeros = 0;
      h_count = 0;
      stats = [| 0.; infinity; neg_infinity |];
    }
  in
  match register t name (Hist h) with Hist h -> h | _ -> assert false

(* [gamma^i], read from the cache when bucket [i] has one.  The cache
   holds the same expression's values, so exports do not depend on it.
   Inlined, so [bucket_index] gets the float unboxed: a call would box
   it. *)
let[@inline] boundary h i =
  let k = i - h.lo in
  if k >= 0 && k < Array.length h.bounds then h.bounds.(k)
  else h.gamma ** float_of_int i

(* Bucket index [i] with [gamma^i <= v < gamma^(i+1)].  The log-ratio
   estimate can land one off at exact boundaries (float log/division), so
   correct against the boundary values actually exported. *)
let bucket_index h v =
  let i = ref (int_of_float (Float.floor (log v /. h.log_gamma))) in
  while boundary h (!i + 1) <= v do
    i := !i + 1
  done;
  while boundary h !i > v do
    i := !i - 1
  done;
  !i

(* Widen [counts] and [bounds] to cover bucket [i]. *)
let cover h i =
  let len = Array.length h.counts in
  let lo = if len = 0 then i else min h.lo i in
  let hi = if len = 0 then i else max (h.lo + len - 1) i in
  let counts = Array.make (hi - lo + 1) 0 in
  if len > 0 then Array.blit h.counts 0 counts (h.lo - lo) len;
  h.bounds <-
    Array.init (hi - lo + 2) (fun k -> h.gamma ** float_of_int (lo + k));
  h.counts <- counts;
  h.lo <- lo

let observe h v =
  h.h_count <- h.h_count + 1;
  let stats = h.stats in
  stats.(0) <- stats.(0) +. v;
  if v < stats.(1) then stats.(1) <- v;
  if v > stats.(2) then stats.(2) <- v;
  if v <= 0. then h.zeros <- h.zeros + 1
  else begin
    let i = bucket_index h v in
    if i < h.lo || i >= h.lo + Array.length h.counts then cover h i;
    let k = i - h.lo in
    h.counts.(k) <- h.counts.(k) + 1
  end

let hist_count h = h.h_count
let hist_sum h = h.stats.(0)
let hist_min h = if h.h_count = 0 then nan else h.stats.(1)
let hist_max h = if h.h_count = 0 then nan else h.stats.(2)

(* (bucket index, count) of every non-empty bucket, ascending. *)
let sorted_buckets h =
  List.filter_map
    (fun k -> if h.counts.(k) > 0 then Some (h.lo + k, h.counts.(k)) else None)
    (List.init (Array.length h.counts) Fun.id)

(* Nearest-rank quantile over bucket counts: the answer is the upper bound
   of the bucket holding the target rank (clamped to the exact observed
   max), or 0 for ranks inside the zeros bucket. *)
let quantile h q =
  if q < 0. || q > 1. then invalid_arg "Metrics.quantile: q outside [0, 1]";
  if h.h_count = 0 then nan
  else begin
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count)))
    in
    if rank <= h.zeros then 0.
    else begin
      let seen = ref h.zeros and ans = ref (hist_max h) in
      (try
         List.iter
           (fun (i, n) ->
             seen := !seen + n;
             if !seen >= rank then begin
               ans := Float.min (hist_max h) (boundary h (i + 1));
               raise Exit
             end)
           (sorted_buckets h)
       with Exit -> ());
      !ans
    end
  end

let hist_json h =
  let buckets =
    List.map
      (fun (i, n) ->
        Dsim.Json.List
          [
            Dsim.Json.Number (boundary h i);
            Dsim.Json.Number (boundary h (i + 1));
            Dsim.Json.Number (float_of_int n);
          ])
      (sorted_buckets h)
  in
  [
    ("count", Dsim.Json.Number (float_of_int h.h_count));
    ("sum", Dsim.Json.Number h.stats.(0));
    ( "min",
      if h.h_count = 0 then Dsim.Json.Null else Dsim.Json.Number h.stats.(1) );
    ( "max",
      if h.h_count = 0 then Dsim.Json.Null else Dsim.Json.Number h.stats.(2) );
    ("zeros", Dsim.Json.Number (float_of_int h.zeros));
    ("gamma", Dsim.Json.Number h.gamma);
    ( "p50",
      if h.h_count = 0 then Dsim.Json.Null
      else Dsim.Json.Number (quantile h 0.5) );
    ( "p90",
      if h.h_count = 0 then Dsim.Json.Null
      else Dsim.Json.Number (quantile h 0.9) );
    ( "p99",
      if h.h_count = 0 then Dsim.Json.Null
      else Dsim.Json.Number (quantile h 0.99) );
    ("buckets", Dsim.Json.List buckets);
  ]

let line ~kind ~name fields =
  Dsim.Json.Obj
    (("kind", Dsim.Json.String kind) :: ("name", Dsim.Json.String name)
    :: fields)

let snapshot ?(include_volatile = false) t =
  let fixed =
    Dsim.Tbl.sorted_fold ~cmp:String.compare
      (fun name m acc ->
        match m with
        | Counter c ->
            (name, line ~kind:"counter" ~name
               [ ("value", Dsim.Json.Number (float_of_int c.c)) ])
            :: acc
        | Gauge { gauge; volatile } ->
            if volatile && not include_volatile then acc
            else
              (name, line ~kind:"gauge" ~name
                 [ ("value", Dsim.Json.Number gauge.g) ])
              :: acc
        | Probe { f; volatile } ->
            if volatile && not include_volatile then acc
            else
              (name, line ~kind:"gauge" ~name
                 [ ("value", Dsim.Json.Number (f ())) ])
              :: acc
        | Hist h -> (name, line ~kind:"histogram" ~name (hist_json h)) :: acc)
      t.by_name []
  in
  let dynamic =
    List.concat_map
      (fun (volatile, f) ->
        if volatile && not include_volatile then []
        else
          List.map
            (fun (name, v) ->
              (name, line ~kind:"gauge" ~name
                 [ ("value", Dsim.Json.Number v) ]))
            (f ()))
      (List.rev t.multis)
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (fixed @ dynamic)
  |> List.map snd
