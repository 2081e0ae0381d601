type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Nearest-rank percentile over an already-sorted array: O(1) per query,
   so [summarize] sorts once and answers every percentile from it. *)
let percentile_sorted sorted ~p =
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0, 100]";
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile xs ~p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty input"
  | _ -> percentile_sorted (sorted_of_list xs) ~p

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty input"
  | _ ->
      let sorted = sorted_of_list xs in
      let n = Array.length sorted in
      let fn = float_of_int n in
      let mean = Array.fold_left ( +. ) 0. sorted /. fn in
      let var =
        Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. sorted /. fn
      in
      {
        count = n;
        mean;
        stddev = sqrt var;
        min = sorted.(0);
        max = sorted.(n - 1);
        p50 = percentile_sorted sorted ~p:50.;
        p90 = percentile_sorted sorted ~p:90.;
        p99 = percentile_sorted sorted ~p:99.;
      }

let histogram ?(bins = 10) xs =
  match xs with
  | [] -> []
  | _ ->
      if bins < 1 then invalid_arg "Stats.histogram: need bins >= 1";
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      let width =
        if hi > lo then (hi -. lo) /. float_of_int bins else 1.
      in
      let counts = Array.make bins 0 in
      List.iter
        (fun x ->
          let b =
            min (bins - 1) (int_of_float ((x -. lo) /. width))
          in
          counts.(b) <- counts.(b) + 1)
        xs;
      List.init bins
        ((fun b ->
           ( lo +. (float_of_int b *. width),
             lo +. (float_of_int (b + 1) *. width),
             counts.(b) ))
        [@mmb.alloc_ok "post-run histogram report"])

(* A non-finite value by name: [%.2f] prints the sign libc gives a
   NaN, which glibc writes as "-nan". *)
let pp_value ppf x =
  if Float.is_finite x then Fmt.pf ppf "%.2f" x
  else if Float.is_nan x then Fmt.string ppf "nan"
  else Fmt.string ppf (if x > 0. then "inf" else "-inf")

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%a sd=%a min=%a p50=%a p90=%a p99=%a max=%a" s.count
    pp_value s.mean pp_value s.stddev pp_value s.min pp_value s.p50 pp_value
    s.p90 pp_value s.p99 pp_value s.max
