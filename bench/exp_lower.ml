(* Experiment E4: the Section 3.3 lower bound, executable.  Figure 2's
   two-line network forces Omega(D*Fack); Lemma 3.18's choke network forces
   Omega(k*Fack).  Together they realize the grey-zone row of Figure 1.

   Exposed as one campaign cell per adversary instance (the d=64 two-line
   run dominates this group's wall-clock). *)

let fack = 20.
let fprog = 1.

let row j =
  Exp.row_of_json
    (Option.value ~default:Dsim.Json.Null (Dsim.Json.member_opt j "row"))

let two_line_ds = [ 4; 8; 16; 32; 64 ]
let choke_ks = [ 2; 4; 8; 16; 32 ]
let control_ds = [ 8; 32 ]

let two_line_cell d =
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e4"
         [
           ("part", Dsim.Json.String "two-line");
           ("d", Exp.num (float_of_int d));
           ("fack", Exp.num fack);
           ("fprog", Exp.num fprog);
         ])
    (fun () ->
      let res = Mmb.Lower_bound.run_two_line ~d ~fack ~fprog () in
      Dsim.Json.Obj
        [
          ("row",
           Exp.row_json
             [
               Report.i d;
               Report.f1 res.Mmb.Lower_bound.time;
               Report.f1 res.Mmb.Lower_bound.floor;
               Report.f1 res.Mmb.Lower_bound.upper;
               Report.verdict res.Mmb.Lower_bound.achieved;
             ]);
          ("sample",
           Dsim.Json.List
             [ Exp.num (float_of_int d); Exp.num res.Mmb.Lower_bound.time ]);
        ])

let choke_cell k =
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e4"
         [
           ("part", Dsim.Json.String "choke");
           ("k", Exp.num (float_of_int k));
           ("fack", Exp.num fack);
           ("fprog", Exp.num fprog);
         ])
    (fun () ->
      let res = Mmb.Lower_bound.run_choke ~k ~fack ~fprog () in
      Dsim.Json.Obj
        [
          ("row",
           Exp.row_json
             [
               Report.i k;
               Report.f1 res.Mmb.Lower_bound.time;
               Report.f1 res.Mmb.Lower_bound.floor;
               Report.verdict res.Mmb.Lower_bound.achieved;
             ]);
        ])

let control_cell d =
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e4"
         [
           ("part", Dsim.Json.String "control");
           ("d", Exp.num (float_of_int d));
           ("fack", Exp.num fack);
           ("fprog", Exp.num fprog);
         ])
    (fun () ->
      let dual = Graphs.Dual.two_line ~d in
      let assignment =
        [
          (Graphs.Dual.two_line_a ~d 1, 0); (Graphs.Dual.two_line_b ~d 1, 1);
        ]
      in
      let eager =
        Obs.Run.bmmb ~dual ~fack ~fprog
          ~policy:(Amac.Schedulers.eager ())
          ~assignment ~seed:0 ()
      in
      let adv = Mmb.Lower_bound.run_two_line ~d ~fack ~fprog () in
      Dsim.Json.Obj
        [
          ("row",
           Exp.row_json
             [
               Report.i d;
               Report.f1 eager.Mmb.Runner.time;
               Report.f1 adv.Mmb.Lower_bound.time;
               Report.f1 (adv.Mmb.Lower_bound.time /. eager.Mmb.Runner.time);
             ]);
        ])

let render results =
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> split (n - 1) (x :: acc) rest
  in
  let two_line, rest = split (List.length two_line_ds) [] results in
  let choke, control = split (List.length choke_ks) [] rest in
  Report.section
    "E4  Figure 1 (standard, grey zone) lower bound: Omega((D + k) * Fack)";
  Report.subsection
    "Figure 2 two-line network: adversary delays each frontier hop by Fack";
  Report.table
    ~header:[ "D"; "time"; "floor (D-1)Fack"; "upper (D+2)Fack"; ">=floor" ]
    (List.map row two_line);
  let samples =
    List.map
      (fun j ->
        match Dsim.Json.member_opt j "sample" with
        | Some (Dsim.Json.List [ Dsim.Json.Number d; Dsim.Json.Number t ]) ->
            (d, t)
        | _ -> (Float.nan, Float.nan))
      two_line
  in
  let slope, _ = Fit.linear1 samples in
  Report.note "fit time ~ slope*D: slope = %.2f (vs Fack = %.0f)" slope fack;
  Chart.print ~x_label:"D" ~y_label:"completion time" samples;
  Report.subsection "Lemma 3.18 choke network: one message per ack";
  Report.table
    ~header:[ "k"; "time"; "floor (k-1)Fack"; ">=floor" ]
    (List.map row choke);
  Report.subsection "Control: same two-line network, benign scheduler";
  Report.table
    ~header:[ "D"; "eager time"; "adversary time"; "slowdown" ]
    (List.map row control);
  Report.note
    "the slowdown is entirely the scheduler's doing; the topology alone is \
     harmless."

let e4 =
  Exp.make ~id:"e4"
    ~cells:
      (List.map two_line_cell two_line_ds
      @ List.map choke_cell choke_ks
      @ List.map control_cell control_ds)
    ~render

let experiments = [ e4 ]
