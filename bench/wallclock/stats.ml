(* Sample summaries.  Quartiles use the method of Python's
   statistics.quantiles(data, n=4) (its default, "exclusive"), so the
   spreads printed here are the ones a reader recomputes from the raw
   samples with that call. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let m = Array.length a in
  if m = 0 then invalid_arg "Stats.median: no samples"
  else if m mod 2 = 1 then a.(m / 2)
  else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

(* Cut points i = 1 and 3 of statistics.quantiles(n=4, method="exclusive"):
   position i * (m + 1) / 4, clamped to [1, m-1], linearly interpolated.
   One sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let m = Array.length a in
  if m = 0 then invalid_arg "Stats.quartiles: no samples"
  else if m = 1 then (a.(0), a.(0))
  else
    let cut i =
      let j = min (max (i * (m + 1) / 4) 1) (m - 1) in
      let delta = (i * (m + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 3)

let summarize xs =
  let q1, q3 = quartiles xs in
  { median = median xs; q1; q3; n = List.length xs }

let iqr s = s.q3 -. s.q1

(* IQR as a share of the median: the spread the verdicts compare against
   a metric's bound. *)
let spread s = if s.median = 0. then 0. else iqr s /. Float.abs s.median
