(* Experiments E5, E6, E8, E9: the enhanced-model algorithm (FMMB), its MIS
   subroutine, the BMMB/FMMB crossover, and ablations of the design choices
   DESIGN.md calls out. *)

let c = 2.0
let fprog = 1.

let grey ~seed ~n =
  let rng = Dsim.Rng.create ~seed in
  let side = sqrt (float_of_int n /. 3.) in
  Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side ~c ~p:0.4
    ~max_tries:1000

(* E5 --------------------------------------------------------------------- *)

let fmmb_run ~dual ~k ~seed =
  let rng = Dsim.Rng.create ~seed:(seed * 31 + 7) in
  let n = Graphs.Dual.n dual in
  let assignment = Mmb.Problem.singleton rng ~n ~k in
  Obs.Run.fmmb ~dual ~fprog ~c
    ~policy:(Amac.Enhanced_mac.minimal_random ())
    ~assignment ~seed ()

let row_of ~n ~k =
  let seeds = [ 1; 2; 3 ] in
    let dual = grey ~seed:(n * 17) ~n in
    let d = Graphs.Bfs.diameter (Graphs.Dual.reliable dual) in
    let runs = List.map (fun seed -> fmmb_run ~dual ~k ~seed) seeds in
    let avg f =
      List.fold_left (fun a r -> a +. f r) 0. runs
      /. float_of_int (List.length runs)
    in
    let all_ok =
      List.for_all
        (fun r ->
          r.Mmb.Runner.fmmb.Mmb.Fmmb.complete
          && r.Mmb.Runner.fmmb.Mmb.Fmmb.mis_valid)
        runs
    in
    let rounds = avg (fun r -> float_of_int r.Mmb.Runner.fmmb.Mmb.Fmmb.total_rounds) in
    let shape = Mmb.Bounds.fmmb_shape ~n ~d ~k in
    ( [
        Report.i n;
        Report.i d;
        Report.i k;
        Report.f1 rounds;
        Report.f1 (avg (fun r -> float_of_int r.Mmb.Runner.fmmb.Mmb.Fmmb.rounds_mis));
        Report.f1 (avg (fun r -> float_of_int r.Mmb.Runner.fmmb.Mmb.Fmmb.rounds_gather));
        Report.f1 (avg (fun r -> float_of_int r.Mmb.Runner.fmmb.Mmb.Fmmb.rounds_spread));
        Report.f2 (rounds /. shape);
        Report.verdict all_ok;
      ],
      rounds )

(* One campaign cell per swept (n, k) point. *)
let e5_ns = [ 20; 40; 80; 160 ]
let e5_ks = [ 1; 2; 4; 8; 16 ]

let e5_cell ~sweep ~n ~k =
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e5"
         [
           ("sweep", Dsim.Json.String sweep);
           ("n", Exp.num (float_of_int n));
           ("k", Exp.num (float_of_int k));
           ("c", Exp.num c);
           ("fprog", Exp.num fprog);
           ("seeds", Dsim.Json.List [ Exp.num 1.; Exp.num 2.; Exp.num 3. ]);
         ])
    (fun () ->
      let row, rounds = row_of ~n ~k in
      Dsim.Json.Obj
        [ ("row", Exp.row_json row); ("rounds", Exp.num rounds) ])

let e5_render results =
  Report.section
    "E5  Figure 1 (enhanced, grey zone): FMMB in O((D logn + k logn + \
     log^3 n) * Fprog), no Fack term";
  Report.note
    "Random geometric grey-zone networks (density ~3/unit^2, c = %.1f), \
     minimal-random round scheduler, 3 seeds per point." c;
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> split (n - 1) (x :: acc) rest
  in
  let n_results, k_results = split (List.length e5_ns) [] results in
  let row j =
    Exp.row_of_json
      (Option.value ~default:Dsim.Json.Null (Dsim.Json.member_opt j "row"))
  in
  Report.subsection "Sweep n (D grows with n), k = 4";
  Report.table
    ~header:
      [ "n"; "D"; "k"; "rounds"; "mis"; "gather"; "spread"; "rounds/shape";
        "ok(complete+MIS)" ]
    (List.map row n_results);
  Report.subsection "Sweep k, n = 60";
  Report.table
    ~header:
      [ "n"; "D"; "k"; "rounds"; "mis"; "gather"; "spread"; "rounds/shape";
        "ok(complete+MIS)" ]
    (List.map row k_results);
  let k_samples =
    List.map2
      (fun k j -> (float_of_int k, Exp.num_of_json ~field:"rounds" j))
      e5_ks k_results
  in
  let slope, intercept = Fit.linear1 k_samples in
  Report.note "fit rounds ~ %.1f * k + %.1f (linear in k, as claimed)" slope
    intercept;
  Chart.print ~x_label:"k" ~y_label:"FMMB rounds" k_samples;
  Report.note
    "no Fack anywhere: FMMB's time is rounds * Fprog regardless of Fack."

let e5 =
  Exp.make ~id:"e5"
    ~cells:
      (List.map (fun n -> e5_cell ~sweep:"n" ~n ~k:4) e5_ns
      @ List.map (fun k -> e5_cell ~sweep:"k" ~n:60 ~k) e5_ks)
    ~render:e5_render

(* E6 --------------------------------------------------------------------- *)

let e6_crossover () =
  Report.section
    "E6  BMMB vs FMMB crossover as Fack/Fprog grows (Discussion, Sections 1 \
     and 4)";
  let n = 60 and k = 8 in
  let dual = grey ~seed:99 ~n in
  let d = Graphs.Bfs.diameter (Graphs.Dual.reliable dual) in
  Report.note "fixed grey-zone network: n = %d, D = %d, k = %d" n d k;
  let rng = Dsim.Rng.create ~seed:5 in
  let assignment = Mmb.Problem.singleton rng ~n ~k in
  let fmmb_res =
    Obs.Run.fmmb ~dual ~fprog ~c
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~assignment ~seed:11 ()
  in
  let fmmb_time = fmmb_res.Mmb.Runner.fmmb.Mmb.Fmmb.time in
  let rows =
    List.map
      (fun ratio ->
        let fack = float_of_int ratio *. fprog in
        let bmmb =
          Obs.Run.bmmb ~dual ~fack ~fprog
            ~policy:(Amac.Schedulers.adversarial ())
            ~assignment ~seed:11 ()
        in
        [
          Report.i ratio;
          Report.f1 bmmb.Mmb.Runner.time;
          Report.f1 fmmb_time;
          (if bmmb.Mmb.Runner.time < fmmb_time then "BMMB" else "FMMB");
        ])
      [ 1; 4; 16; 64; 256; 1024 ]
  in
  Report.table
    ~header:[ "Fack/Fprog"; "BMMB time (adv)"; "FMMB time"; "winner" ]
    rows;
  Report.note
    "FMMB pays polylog factors in Fprog but no Fack; BMMB pays k*Fack.  As \
     the MAC-layer ack/progress gap widens, FMMB wins — the paper's case \
     for the abort interface."

(* E8 --------------------------------------------------------------------- *)

let e8_ns = [ 16; 32; 64; 128; 256 ]

let e8_cell n =
  Exec.Job.make
    ~spec:
      (Exp.spec ~id:"e8"
         [
           ("n", Exp.num (float_of_int n));
           ("c", Exp.num c);
           ("seeds", Exp.num 10.);
         ])
    (fun () ->
        let dual = grey ~seed:(n * 13 + 1) ~n in
        let g = Graphs.Dual.reliable dual in
        let params = Mmb.Fmmb_mis.default_params ~n ~c in
        let valid = ref 0 and rounds_sum = ref 0 and size_sum = ref 0 in
        let budget = ref 0 in
        let seeds = List.init 10 (fun i -> i + 1) in
        List.iter
          (fun seed ->
            let rng = Dsim.Rng.create ~seed:(seed * 1009) in
            let res =
              Mmb.Fmmb_mis.run ~dual ~rng
                ~policy:(Amac.Enhanced_mac.minimal_random ())
                ~params ()
            in
            let members =
              List.filter
                (fun v -> res.Mmb.Fmmb_mis.mis.(v))
                (List.init n Fun.id)
            in
            if
              Graphs.Mis.is_maximal_independent g members
              && res.Mmb.Fmmb_mis.undecided = 0
            then incr valid;
            rounds_sum := !rounds_sum + res.Mmb.Fmmb_mis.rounds_run;
            size_sum := !size_sum + List.length members;
            budget := res.Mmb.Fmmb_mis.budget_rounds)
          seeds;
        let greedy_size = List.length (Graphs.Mis.greedy g) in
        Dsim.Json.Obj
          [
            ("row",
             Exp.row_json
               [
                 Report.i n;
                 Printf.sprintf "%d/10" !valid;
                 Report.f1 (float_of_int !rounds_sum /. 10.);
                 Report.i !budget;
                 Report.f1 (float_of_int !size_sum /. 10.);
                 Report.i greedy_size;
               ]);
          ])

let e8_render results =
  Report.section
    "E8  The MIS subroutine alone (Section 4.2, 'independent interest')";
  Report.note
    "Validity rate over 10 seeds per n; budget is the Theta(c^4 log^3 n) \
     prescription; convergence is when the simulation quiesces.";
  Report.table
    ~header:
      [ "n"; "valid"; "avg rounds to quiesce"; "budget"; "avg |MIS|";
        "greedy |MIS|" ]
    (List.map
       (fun j ->
         Exp.row_of_json
           (Option.value ~default:Dsim.Json.Null
              (Dsim.Json.member_opt j "row")))
       results);
  Report.note
    "shape check: the budget grows ~log^3 n; quiescence is much earlier in \
     practice; validity holds w.h.p."

let e8 = Exp.make ~id:"e8" ~cells:(List.map e8_cell e8_ns) ~render:e8_render

(* E9 --------------------------------------------------------------------- *)

let e9_ablations () =
  Report.section "E9  Ablations of design choices";
  Report.subsection
    "BMMB queue discipline (the paper's FIFO vs a LIFO variant)";
  let fack = 20. in
  let rows =
    List.map
      (fun k ->
        (* Messages start spread along the line so queue interleavings
           matter; per-message latencies expose LIFO's starvation of old
           messages. *)
        let dual = Graphs.Dual.of_equal (Graphs.Gen.line 30) in
        let assignment = List.init k (fun i -> (i, i)) in
        let run discipline =
          Obs.Run.bmmb ~dual ~fack ~fprog:1.
            ~policy:(Amac.Schedulers.adversarial ())
            ~assignment ~seed:3 ~discipline ()
        in
        let fifo = run `Fifo and lifo = run `Lifo in
        let worst res =
          List.fold_left (fun a (_, t) -> Float.max a t) 0.
            res.Mmb.Runner.latencies
        in
        [
          Report.i k;
          Report.f1 fifo.Mmb.Runner.time;
          Report.f1 lifo.Mmb.Runner.time;
          Report.f1 (worst fifo);
          Report.f1 (worst lifo);
        ])
      [ 2; 4; 8; 16 ]
  in
  Report.table
    ~header:
      [ "k"; "FIFO total"; "LIFO total"; "FIFO worst msg"; "LIFO worst msg" ]
    rows;
  Report.note
    "finding: with the MMB problem's batch (time-0) arrivals, the queue \
     discipline does not change the completion profile — the FIFO \
     assumption in Thm 3.2/3.16 buys proof structure (pipelining \
     regularity), not batch performance.  LIFO's starvation risk needs \
     online arrivals, which the paper defers to [30].";
  Report.subsection "Gather with vs without the acknowledgment round";
  let n = 40 and k = 6 in
  let dual = grey ~seed:21 ~n in
  let g = Graphs.Dual.reliable dual in
  let mis_list = Graphs.Mis.greedy g in
  let mis = Array.make n false in
  List.iter (fun v -> mis.(v) <- true) mis_list;
  let rng0 = Dsim.Rng.create ~seed:77 in
  let assignment = Mmb.Problem.singleton rng0 ~n ~k in
  let initial = Array.make n [] in
  List.iter (fun (node, m) -> initial.(node) <- m :: initial.(node)) assignment;
  let gather_with use_acks =
    let rng = Dsim.Rng.create ~seed:123 in
    let params =
      { (Mmb.Fmmb_gather.default_params ~n ~k ~c) with Mmb.Fmmb_gather.use_acks }
    in
    Mmb.Fmmb_gather.run ~dual ~rng
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~params ~mis ~initial
      ~on_payload:(fun ~node:_ ~payload:_ -> ())
      ()
  in
  let with_acks = gather_with true and without = gather_with false in
  let gathered res =
    List.for_all
      (fun m ->
        List.exists
          (fun v -> Dsim.Bitset.mem res.Mmb.Fmmb_gather.mis_sets.(v) m)
          mis_list)
      (List.init k Fun.id)
  in
  Report.table
    ~header:
      [ "variant"; "rounds"; "data broadcasts"; "all gathered"; "quiesced" ]
    [
      [
        "with acks";
        Report.i with_acks.Mmb.Fmmb_gather.rounds_run;
        Report.i with_acks.Mmb.Fmmb_gather.data_broadcasts;
        Report.verdict (gathered with_acks);
        Report.verdict (with_acks.Mmb.Fmmb_gather.leftover = 0);
      ];
      [
        "without acks";
        Report.i without.Mmb.Fmmb_gather.rounds_run;
        Report.i without.Mmb.Fmmb_gather.data_broadcasts;
        Report.verdict (gathered without);
        Report.verdict (without.Mmb.Fmmb_gather.leftover = 0);
      ];
    ];
  Report.note
    "without the third round, messages are still absorbed but non-MIS nodes \
     never stop offering them: no quiescence and many redundant broadcasts.";
  Report.subsection "Spread with vs without rounds-2/3 relaying";
  let spread_with relays =
    let rng = Dsim.Rng.create ~seed:321 in
    let tracker = Mmb.Problem.tracker ~dual assignment in
    List.iter
      (fun (node, m) -> Mmb.Problem.on_deliver tracker ~node ~msg:m ~time:0.)
      assignment;
    let gr = gather_with true in
    (* Credit gather-phase knowledge to the tracker first. *)
    Array.iteri
      (fun v set ->
        Dsim.Bitset.iter
          (fun m -> Mmb.Problem.on_deliver tracker ~node:v ~msg:m ~time:0.)
          set)
      gr.Mmb.Fmmb_gather.mis_sets;
    let params =
      { (Mmb.Fmmb_spread.default_params ~n ~c) with Mmb.Fmmb_spread.relays }
    in
    let known = Array.init n (fun _ -> Dsim.Bitset.create ~width:0) in
    let res =
      Mmb.Fmmb_spread.run ~dual ~rng
        ~policy:(Amac.Enhanced_mac.minimal_random ())
        ~params ~mis ~sets:gr.Mmb.Fmmb_gather.mis_sets
        ~on_payload:(fun ~node ~payload ->
          if not (Dsim.Bitset.test_and_add known.(node) payload) then
            Mmb.Problem.on_deliver tracker ~node ~msg:payload ~time:0.)
        ~stop:(fun () -> Mmb.Problem.complete tracker)
        ~max_phases:40 ()
    in
    (res.Mmb.Fmmb_spread.rounds_run, Mmb.Problem.complete tracker)
  in
  let r_on, c_on = spread_with true in
  let r_off, c_off = spread_with false in
  Report.table
    ~header:[ "variant"; "rounds"; "complete" ]
    [
      [ "with relays"; Report.i r_on; Report.verdict c_on ];
      [ "without relays"; Report.i r_off; Report.verdict c_off ];
    ];
  Report.note
    "the 3-hop overlay H is only reachable through the relay rounds; \
     disabling them strands MIS nodes at overlay distance >= 2.";
  Report.subsection
    "FMMB sensitivity to the assumed grey-zone constant c (budgets sized \
     with c_assumed, network built with c = 2)";
  let rows =
    List.map
      (fun c_assumed ->
        let n = 40 and k = 4 in
        let dual = grey ~seed:33 ~n in
        let rng = Dsim.Rng.create ~seed:44 in
        let assignment = Mmb.Problem.singleton rng ~n ~k in
        let params = Mmb.Fmmb.default_params ~n ~k ~c:c_assumed in
        let res =
          Obs.Run.fmmb ~dual ~fprog:1. ~c:c_assumed
            ~policy:(Amac.Enhanced_mac.minimal_random ())
            ~assignment ~seed:55 ~params ()
        in
        [
          Report.f1 c_assumed;
          Report.i res.Mmb.Runner.fmmb.Mmb.Fmmb.total_rounds;
          Report.verdict res.Mmb.Runner.fmmb.Mmb.Fmmb.complete;
          Report.verdict res.Mmb.Runner.fmmb.Mmb.Fmmb.mis_valid;
          Report.i res.Mmb.Runner.fmmb.Mmb.Fmmb.gather_leftover;
        ])
      [ 1.0; 1.5; 2.0; 3.0; 4.0 ]
  in
  Report.table
    ~header:[ "c assumed"; "rounds"; "complete"; "MIS valid"; "stranded" ]
    rows;
  Report.note
    "overestimating c only inflates budgets (rounds grow ~c^2-c^4); \
     underestimating it shrinks the activation probabilities' safety \
     margin and can strand messages or break MIS validity.";
  Report.subsection "Scheduler spectrum on one network (BMMB, n=30 line, k=6)";
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 30) in
  let assignment = Mmb.Problem.all_at ~node:0 ~k:6 in
  let rows =
    List.map
      (fun (name, make) ->
        let res =
          Obs.Run.bmmb ~dual ~fack ~fprog:1. ~policy:(make ())
            ~assignment ~seed:4 ()
        in
        [
          name;
          Report.f1 res.Mmb.Runner.time;
          Report.i res.Mmb.Runner.forced;
          Report.f2 (res.Mmb.Runner.time /. res.Mmb.Runner.upper_bound);
        ])
      (Amac.Schedulers.all_standard ())
  in
  Report.table
    ~header:[ "scheduler"; "time"; "forced deliveries"; "time/bound" ]
    rows

let e6 = Exp.inline ~id:"e6" e6_crossover
let e9 = Exp.inline ~id:"e9" e9_ablations

let experiments = [ e5; e6; e8; e9 ]
