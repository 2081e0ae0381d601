(* Experiments E1-E3 and E7: BMMB in the standard abstract MAC layer model
   across the Figure-1 G' regimes, with the paper's exact bounds as oracles.
   See DESIGN.md section 5 and EXPERIMENTS.md for the paper-vs-measured
   record.

   Each group exposes its sweep as a list of pure cells (one per row /
   Monte-Carlo trial) so the campaign runner can fan them across domains
   and cache them individually; the [render] step reassembles the tables
   in cell order. *)

let fack = 20.
let fprog = 1.

let avg_time ~dual ~policy ~assignment ~seeds =
  let total = ref 0. and ok = ref true in
  List.iter
    (fun seed ->
      let res =
        Obs.Run.bmmb ~dual ~fack ~fprog ~policy ~assignment ~seed ()
      in
      if not (res.Mmb.Runner.complete && res.Mmb.Runner.within_bound) then
        ok := false;
      total := !total +. res.Mmb.Runner.time)
    seeds;
  (!total /. float_of_int (List.length seeds), !ok)

(* E1 --------------------------------------------------------------------- *)

(* One cell per swept row; the result carries the rendered row strings and
   the (D, k, time) sample the closing fit consumes. *)
let e1_row_json row (d, k, t) =
  Dsim.Json.Obj
    [
      ("row", Exp.row_json row);
      ("sample", Dsim.Json.List [ Exp.num d; Exp.num k; Exp.num t ]);
    ]

let e1_sample_of_json json =
  match Dsim.Json.member_opt json "sample" with
  | Some (Dsim.Json.List [ Dsim.Json.Number d; Dsim.Json.Number k;
                           Dsim.Json.Number t ]) ->
      (d, k, t)
  | _ -> (Float.nan, Float.nan, Float.nan)

let e1_d_cell n =
  let k = 4 in
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e1"
         [
           ("sweep", Dsim.Json.String "d");
           ("topology", Dsim.Json.String "line");
           ("n", Exp.num (float_of_int n));
           ("k", Exp.num (float_of_int k));
           ("fack", Exp.num fack);
           ("fprog", Exp.num fprog);
           ("scheduler", Dsim.Json.String "adversarial");
           ("seeds", Dsim.Json.List [ Exp.num 1.; Exp.num 2.; Exp.num 3. ]);
         ])
    (fun () ->
      let dual = Graphs.Dual.of_equal (Graphs.Gen.line n) in
      let assignment = Mmb.Problem.all_at ~node:0 ~k in
      let t, ok =
        avg_time ~dual ~policy:(Amac.Schedulers.adversarial ()) ~assignment
          ~seeds:[ 1; 2; 3 ]
      in
      let d = n - 1 in
      let bound = Mmb.Bounds.bmmb_upper ~dual ~assignment ~fack ~fprog in
      e1_row_json
        [ Report.i n; Report.i d; Report.f1 t; Report.f1 bound;
          Report.f2 (t /. bound); Report.verdict ok ]
        (float_of_int d, float_of_int k, t))

let e1_k_cell k =
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e1"
         [
           ("sweep", Dsim.Json.String "k");
           ("topology", Dsim.Json.String "line");
           ("n", Exp.num 30.);
           ("k", Exp.num (float_of_int k));
           ("fack", Exp.num fack);
           ("fprog", Exp.num fprog);
           ("scheduler", Dsim.Json.String "adversarial");
           ("seeds", Dsim.Json.List [ Exp.num 1.; Exp.num 2.; Exp.num 3. ]);
         ])
    (fun () ->
      let dual = Graphs.Dual.of_equal (Graphs.Gen.line 30) in
      let assignment = Mmb.Problem.all_at ~node:0 ~k in
      let t, ok =
        avg_time ~dual ~policy:(Amac.Schedulers.adversarial ()) ~assignment
          ~seeds:[ 1; 2; 3 ]
      in
      let bound = Mmb.Bounds.bmmb_upper ~dual ~assignment ~fack ~fprog in
      e1_row_json
        [ Report.i k; Report.f1 t; Report.f1 bound; Report.f2 (t /. bound);
          Report.verdict ok ]
        (29., float_of_int k, t))

let e1_d_ns = [ 10; 20; 40; 80 ]
let e1_k_ks = [ 1; 2; 4; 8; 16 ]

let e1_render results =
  Report.section
    "E1  Figure 1 (standard, G' = G): BMMB in O(D*Fprog + k*Fack)";
  Report.note "Fack = %.0f, Fprog = %.0f; adversarial scheduler (worst case)."
    fack fprog;
  let d_results, k_results =
    let rec split n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> split (n - 1) (x :: acc) rest
    in
    split (List.length e1_d_ns) [] results
  in
  Report.subsection "Sweep D on a line, k = 4";
  Report.table
    ~header:[ "n"; "D"; "time"; "bound"; "time/bound"; "<=bound" ]
    (List.map
       (fun j -> Exp.row_of_json (Option.value ~default:Dsim.Json.Null
                                    (Dsim.Json.member_opt j "row")))
       d_results);
  Report.subsection "Sweep k on a line, n = 30";
  Report.table
    ~header:[ "k"; "time"; "bound"; "time/bound"; "<=bound" ]
    (List.map
       (fun j -> Exp.row_of_json (Option.value ~default:Dsim.Json.Null
                                    (Dsim.Json.member_opt j "row")))
       k_results);
  let samples = List.map e1_sample_of_json results in
  let a, b = Fit.linear2 samples in
  Report.note
    "fit time ~ a*D + b*k:  a = %.2f (vs Fprog = %.0f),  b = %.2f (vs Fack = \
     %.0f)"
    a fprog b fack;
  Report.note
    "shape check: the D coefficient tracks Fprog, the k coefficient Fack."

let e1 =
  Exp.make ~id:"e1"
    ~cells:(List.map e1_d_cell e1_d_ns @ List.map e1_k_cell e1_k_ks)
    ~render:e1_render

(* E2 --------------------------------------------------------------------- *)

let e2_rs = [ 1; 2; 4; 8 ]

let e2_cell r =
  let k = 6 and n = 40 in
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e2"
         [
           ("topology", Dsim.Json.String "line");
           ("n", Exp.num (float_of_int n));
           ("k", Exp.num (float_of_int k));
           ("r", Exp.num (float_of_int r));
           ("extra", Exp.num 16.);
           ("fack", Exp.num fack);
           ("fprog", Exp.num fprog);
           ("scheduler", Dsim.Json.String "adversarial");
           ("seeds", Dsim.Json.List [ Exp.num 1.; Exp.num 2.; Exp.num 3. ]);
         ])
    (fun () ->
      let assignment = Mmb.Problem.all_at ~node:0 ~k in
      let times, bounds, oks =
        List.fold_left
          (fun (ts, bs, oks) seed ->
            let rng = Dsim.Rng.create ~seed:(seed * 1000) in
            let g = Graphs.Gen.line n in
            let dual = Graphs.Dual.r_restricted_random rng ~g ~r ~extra:16 in
            let res =
              Obs.Run.bmmb ~dual ~fack ~fprog
                ~policy:(Amac.Schedulers.adversarial ())
                ~assignment ~seed ()
            in
            ( res.Mmb.Runner.time :: ts,
              res.Mmb.Runner.upper_bound :: bs,
              (res.Mmb.Runner.complete && res.Mmb.Runner.within_bound) :: oks ))
          ([], [], []) [ 1; 2; 3 ]
      in
      let avg l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
      Dsim.Json.Obj
        [
          ("row",
           Exp.row_json
             [
               Report.i r;
               Report.f1 (avg times);
               Report.f1 (avg bounds);
               Report.f2 (avg times /. avg bounds);
               Report.verdict (List.for_all Fun.id oks);
             ]);
        ])

let e2_render results =
  Report.section
    "E2  Figure 1 (standard, r-restricted): BMMB in O(D*Fprog + r*k*Fack)";
  Report.note
    "Line n = 40, k = 6, 16 extra unreliable edges within r hops; \
     adversarial scheduler; 3 seeds.";
  Report.table
    ~header:[ "r"; "time"; "Thm3.16 bound"; "time/bound"; "<=bound" ]
    (List.map
       (fun j -> Exp.row_of_json (Option.value ~default:Dsim.Json.Null
                                    (Dsim.Json.member_opt j "row")))
       results);
  Report.note
    "shape check: the worst-case envelope (the bound column) grows \
     linearly in r while D*Fprog stays fixed."

let e2 = Exp.make ~id:"e2" ~cells:(List.map e2_cell e2_rs) ~render:e2_render

(* E3 --------------------------------------------------------------------- *)

let e3_ds = [ 8; 16; 32 ]

let e3_cell d =
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e3"
         [
           ("d", Exp.num (float_of_int d));
           ("r", Exp.num 2.);
           ("extra", Exp.num 8.);
           ("fack", Exp.num fack);
           ("fprog", Exp.num fprog);
           ("k", Exp.num 2.);
         ])
    (fun () ->
      (* Long-range regime: the Figure-2 network driven by its adversary. *)
      let adv = Mmb.Lower_bound.run_two_line ~d ~fack ~fprog () in
      (* Short-range regime: a line of the same diameter with r-restricted
         noise and the generic adversarial scheduler. *)
      let rng = Dsim.Rng.create ~seed:d in
      let g = Graphs.Gen.line d in
      let dual_r = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:8 in
      let assignment = [ (0, 0); (d - 1, 1) ] in
      let short =
        Obs.Run.bmmb ~dual:dual_r ~fack ~fprog
          ~policy:(Amac.Schedulers.adversarial ())
          ~assignment ~seed:d ()
      in
      Dsim.Json.Obj
        [
          ("row",
           Exp.row_json
             [
               Report.i d;
               Report.f1 short.Mmb.Runner.time;
               Report.f1 adv.Mmb.Lower_bound.time;
               Report.f1 (Mmb.Bounds.thm_3_1 ~d:(d - 1) ~k:2 ~fack);
               Report.f2 (adv.Mmb.Lower_bound.time /. short.Mmb.Runner.time);
             ]);
        ])

let e3_render results =
  Report.section
    "E3  Figure 1 (standard, arbitrary G'): BMMB slows to Theta((D+k)*Fack)";
  Report.note
    "Same base line graph; short-range (r = 2) vs long-range unreliable \
     edges under the two-line adversary topology; k = 2.";
  Report.table
    ~header:
      [ "D"; "short-range time"; "long-range time"; "(D+k)Fack"; "slowdown" ]
    (List.map
       (fun j -> Exp.row_of_json (Option.value ~default:Dsim.Json.Null
                                    (Dsim.Json.member_opt j "row")))
       results);
  Report.note
    "shape check: with long-range unreliable edges the D term pays Fack \
     per hop; with short-range ones it pays ~Fprog per hop.";
  Report.note
    "(This is the paper's core insight: structure, not quantity, of \
     unreliability.)"

let e3 = Exp.make ~id:"e3" ~cells:(List.map e3_cell e3_ds) ~render:e3_render

(* E7 --------------------------------------------------------------------- *)

(* The Monte-Carlo sweep that dominates bench wall-clock: one cell per
   trial, so a campaign spreads the 120 trials across every domain. *)
let e7_trials = 120

let e7_cell seed =
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e7"
         [ ("trial", Exp.num (float_of_int seed)); ("fprog", Exp.num 1.) ])
    (fun () ->
      let rng = Dsim.Rng.create ~seed:(seed * 7919) in
      let n = 5 + Dsim.Rng.int rng 20 in
      let k = 1 + Dsim.Rng.int rng 5 in
      let base =
        match Dsim.Rng.int rng 4 with
        | 0 -> Graphs.Gen.line n
        | 1 -> Graphs.Gen.ring (max 3 n)
        | 2 ->
            Graphs.Gen.grid
              ~rows:(2 + Dsim.Rng.int rng 3)
              ~cols:(2 + Dsim.Rng.int rng 5)
        | _ -> Graphs.Gen.gnp rng ~n ~p:0.3
      in
      let n = Graphs.Graph.n base in
      let dual =
        match Dsim.Rng.int rng 3 with
        | 0 -> Graphs.Dual.of_equal base
        | 1 ->
            Graphs.Dual.r_restricted_random rng ~g:base
              ~r:(1 + Dsim.Rng.int rng 4)
              ~extra:(Dsim.Rng.int rng 12)
        | _ ->
            Graphs.Dual.arbitrary_random rng ~g:base ~extra:(Dsim.Rng.int rng 12)
      in
      let policy =
        match Dsim.Rng.int rng 3 with
        | 0 -> Amac.Schedulers.eager ()
        | 1 -> Amac.Schedulers.random_compliant ()
        | _ -> Amac.Schedulers.adversarial ()
      in
      let assignment = Mmb.Problem.random rng ~n ~k in
      let res =
        Obs.Run.bmmb ~dual ~fack:(2. +. Dsim.Rng.float rng 30.)
          ~fprog:1. ~policy ~assignment ~seed
          ~check_compliance:true ()
      in
      Dsim.Json.Obj
        [
          ("fail",
           Dsim.Json.Bool
             (not (res.Mmb.Runner.complete && res.Mmb.Runner.within_bound)));
          ("comp",
           Dsim.Json.Bool (res.Mmb.Runner.compliance_violations <> []));
          ("ratio",
           Exp.num
             (if res.Mmb.Runner.complete && res.Mmb.Runner.upper_bound > 0.
              then res.Mmb.Runner.time /. res.Mmb.Runner.upper_bound
              else 0.));
        ])

let e7_render results =
  Report.section
    "E7  Theorem 3.16 / 3.1 as hard invariants (Monte-Carlo over models)";
  let failures = ref 0 and max_ratio = ref 0. and compliance_bad = ref 0 in
  List.iter
    (fun j ->
      if Exp.bool_of_json ~field:"fail" j then incr failures;
      if Exp.bool_of_json ~field:"comp" j then incr compliance_bad;
      max_ratio := Float.max !max_ratio (Exp.num_of_json ~field:"ratio" j))
    results;
  Report.table
    ~header:
      [ "trials"; "bound violations"; "compliance violations";
        "max time/bound" ]
    [
      [
        Report.i e7_trials;
        Report.i !failures;
        Report.i !compliance_bad;
        Report.f2 !max_ratio;
      ];
    ];
  Report.note
    "every sampled (topology, G', scheduler, k) run must finish within the \
     exact paper bound; time/bound < 1 everywhere."

let e7 =
  Exp.make ~id:"e7"
    ~cells:(List.map e7_cell (List.init e7_trials (fun i -> i + 1)))
    ~render:e7_render

let experiments = [ e1; e2; e3; e7 ]
