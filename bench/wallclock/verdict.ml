(* `--compare A.json B.json`: one row per workload x end-to-end metric,
   judged against the regression bounds in BENCHMARK.json.  A is the
   base, B the candidate.

   - REGRESSION: B's median is worse than A's by more than the bound.
   - IMPROVED: B's median is better by more than the bound.
   - UNRESOLVED: either side's IQR is wider than the bound (as a share of
     its median) and the two [q1, q3] ranges overlap; the medians alone
     cannot tell a change from noise.
   - PASS: otherwise.

   Two rows per workload are not timings: [failed_frac] (failed ÷
   attempted) is a REGRESSION on any increase, and [counters] — the
   simulated results, bound ratio included — reads CHANGED when any of
   them differs, which a simulator-only change must never cause. *)

type bound = { metric : string; lower_is_better : bool; bound : float }

type t = Pass | Improved | Regression | Unresolved | Changed | Missing

let to_string = function
  | Pass -> "PASS"
  | Improved -> "IMPROVED"
  | Regression -> "REGRESSION"
  | Unresolved -> "UNRESOLVED"
  | Changed -> "CHANGED"
  | Missing -> "MISSING"

let fails = function Regression | Missing -> true | _ -> false

(* Every metric, setup_s too, is judged by its relative bound alone.
   Set-up is sampled all through a run, as run time is, and measured
   across separate processes it drifts with the host as run time does,
   by a share of itself; an absolute floor fitted no workload. *)
let judge b (a : Stats.summary) (c : Stats.summary) =
  let worse =
    if b.lower_is_better then c.Stats.median -. a.Stats.median
    else a.Stats.median -. c.Stats.median
  in
  let allowed = b.bound *. Float.abs a.Stats.median in
  let overlap = a.Stats.q1 <= c.Stats.q3 && c.Stats.q1 <= a.Stats.q3 in
  if (Stats.spread a > b.bound || Stats.spread c > b.bound) && overlap then
    Unresolved
  else if worse > allowed then Regression
  else if -.worse > allowed then Improved
  else Pass

(* --- BENCHMARK.json -------------------------------------------------------- *)

let ( let* ) = Result.bind

let bounds_of_json j =
  let* rows = Result.bind (Dsim.Json.member j "end_to_end") Dsim.Json.to_list in
  Report.map_result
    (fun r ->
      let* metric = Report.field r "name" Dsim.Json.to_str in
      let* better = Report.field r "better" Dsim.Json.to_str in
      let* bound = Report.field r "bound" Dsim.Json.to_float in
      match better with
      | "lower" -> Ok { metric; lower_is_better = true; bound }
      | "higher" -> Ok { metric; lower_is_better = false; bound }
      | s ->
          Error
            (Printf.sprintf "%s: better must be lower or higher, not %S"
               metric s))
    rows

let load_bounds path =
  match Dsim.Json.parse (Report.read_file path) with
  | exception Sys_error e -> Error e
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j -> Result.map_error (fun e -> path ^ ": " ^ e) (bounds_of_json j)

(* --- Rows ------------------------------------------------------------------ *)

type row = {
  workload : string;
  metric : string;
  base : Stats.summary option;
  cand : Stats.summary option;
  verdict : t;
}

let failed_frac (w : Report.workload) =
  float_of_int w.Report.failed /. float_of_int (max 1 w.Report.attempted)

let point x = Some { Stats.median = x; q1 = x; q3 = x; n = 1 }

let rows ~bounds (base : Report.doc) (cand : Report.doc) =
  List.concat_map
    (fun (a : Report.workload) ->
      let c =
        List.find_opt
          (fun (c : Report.workload) ->
            String.equal c.Report.workload a.Report.workload)
          cand.Report.workloads
      in
      let row metric base cand verdict =
        { workload = a.Report.workload; metric; base; cand; verdict }
      in
      let summary (w : Report.workload) name =
        List.find_map
          (fun (m : Report.metric) ->
            if String.equal m.Report.name name then Some m.Report.summary else None)
          w.Report.metrics
      in
      let timed =
        List.map
          (fun (b : bound) ->
            let sa = summary a b.metric in
            let sc = Option.bind c (fun c -> summary c b.metric) in
            match (sa, sc) with
            | Some x, Some y -> row b.metric sa sc (judge b x y)
            | _ -> row b.metric sa sc Missing)
          bounds
      in
      match c with
      | None -> timed
      | Some c ->
          let fa = failed_frac a and fc = failed_frac c in
          timed
          @ [
              row "failed_frac" (point fa) (point fc)
                (if fc > fa then Regression else Pass);
              row "counters" None None
                (if
                   a.Report.events = c.Report.events
                   && a.Report.counters = c.Report.counters
                 then Pass
                 else Changed);
            ])
    base.Report.workloads

let print_rows rows =
  let cell = function
    | None -> "-"
    | Some s ->
        Printf.sprintf "%.6g [%.6g, %.6g]" s.Stats.median s.Stats.q1 s.Stats.q3
  in
  Printf.printf "%-20s %-22s %-36s %-36s %s\n" "workload" "metric"
    "base median [q1, q3]" "candidate median [q1, q3]" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-20s %-22s %-36s %-36s %s\n" r.workload r.metric
        (cell r.base) (cell r.cand) (to_string r.verdict))
    rows
