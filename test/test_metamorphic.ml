(* Metamorphic guard: the model measures time only in units of Fack and
   Fprog.  Doubling both must double every trace timestamp exactly and
   leave every event, and so the order of events, unchanged.  Scaling a
   float by 2 is exact, so the comparison is float [=]: an absolute-time
   constant anywhere on a run's path (an epsilon, a fixed offset) shows
   as a mismatch.  Each property draws small random instances; a doubled
   run also queues its events under different delays than the original,
   so the event queue's lanes open under other keys. *)

(* Whether [b]'s entries are [a]'s, each at twice the time. *)
let doubled a b =
  let a = Dsim.Trace.entries a and b = Dsim.Trace.entries b in
  a <> []
  && List.length a = List.length b
  && List.for_all2
       (fun { Dsim.Trace.time = ta; event = ea }
            { Dsim.Trace.time = tb; event = eb } ->
         Float.equal tb (2. *. ta) && ea = eb)
       a b

(* A [rows] x [cols] grid with an r-restricted G' (r = 2), drawn from
   [seed], and [k] messages at random nodes. *)
let grid_instance ~seed ~rows ~cols ~k =
  let rng = Dsim.Rng.create ~seed in
  let g = Graphs.Gen.grid ~rows ~cols in
  let dual =
    Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:(rows * cols)
  in
  (dual, Mmb.Problem.random rng ~n:(rows * cols) ~k)

let instance_arb =
  QCheck.(
    make
      ~print:(fun (seed, rows, cols, k) ->
        Printf.sprintf "seed %d, %dx%d grid, k = %d" seed rows cols k)
      Gen.(
        quad (int_bound 100_000) (int_range 2 8) (int_range 2 8)
          (int_range 1 4)))

(* Serial BMMB under each of the four schedulers, Fack = 8 Fprog.  A
   policy may keep state (bursty's per-edge chains), so each run builds
   its own. *)
let prop_serial_bmmb =
  QCheck.Test.make ~name:"serial BMMB: doubling Fack and Fprog doubles times"
    ~count:40 instance_arb (fun (seed, rows, cols, k) ->
      let dual, assignment = grid_instance ~seed ~rows ~cols ~k in
      let run policy scale =
        snd
          (Kept.run (fun instrument ->
               Mmb.Runner.run_bmmb ~dual ~fack:(8. *. scale) ~fprog:scale
                 ~policy:(policy ()) ~assignment ~seed ~instrument ()))
      in
      List.for_all
        (fun policy -> doubled (run policy 1.) (run policy 2.))
        [
          (fun () -> Amac.Schedulers.eager ());
          (fun () -> Amac.Schedulers.random_compliant ());
          (fun () -> Amac.Schedulers.adversarial ());
          (fun () -> Amac.Schedulers.bursty ());
        ])

(* The partitioned engine at P = 4, whose window is Fprog wide. *)
let prop_pdes =
  QCheck.Test.make
    ~name:"partitioned BMMB (P = 4): doubling Fack and Fprog doubles times"
    ~count:30 instance_arb (fun (seed, rows, cols, k) ->
      let dual, assignment = grid_instance ~seed ~rows:(rows + 2) ~cols ~k in
      let run scale =
        snd
          (Kept.run (fun instrument ->
               Mmb.Runner.run_bmmb_pdes ~dual ~fack:(8. *. scale)
                 ~fprog:scale
                 ~policy:(Amac.Schedulers.random_compliant ())
                 ~assignment ~seed ~partitions:4 ~domains:1 ~instrument ()))
      in
      doubled (run 1.) (run 2.))

(* Continuous FMMB under both round-sync modes (Fack = 100 Fprog) on a
   [side] x [side] lattice of spacing 0.7, jittered by up to 0.1, with
   G' the grey zone out to c = 2. *)
let prop_fmmb =
  QCheck.Test.make
    ~name:"continuous FMMB: doubling Fprog (and Fack) doubles times" ~count:8
    QCheck.(triple (int_bound 100_000) (int_range 3 5) (int_range 1 3))
    (fun (seed, side, k) ->
      let n = side * side in
      let rng = Dsim.Rng.create ~seed in
      let jitter () = Dsim.Rng.float rng 0.2 -. 0.1 in
      let points =
        Array.init n (fun i ->
            Graphs.Geometry.point
              ((0.7 *. float_of_int (i mod side)) +. jitter ())
              ((0.7 *. float_of_int (i / side)) +. jitter ()))
      in
      let dual = Graphs.Dual.of_embedding ~points ~c:2. in
      let assignment = Mmb.Problem.singleton rng ~n ~k in
      let run mode fprog =
        let tr = Dsim.Trace.create () in
        ignore
          (Mmb.Fmmb.run ~dual ~fprog ~rng:(Dsim.Rng.create ~seed)
             ~policy:(Amac.Enhanced_mac.minimal_random ())
             ~params:(Mmb.Fmmb.default_params ~n ~k ~c:2.)
             ~assignment
             ~tracker:(Mmb.Problem.tracker ~dual assignment)
             ~backend:(Mmb.Fmmb.Continuous mode) ~trace:tr ());
        tr
      in
      List.for_all
        (fun mode -> doubled (run mode 1.) (run mode 2.))
        [ Amac.Round_sync.Generous; Amac.Round_sync.Minimal ])

let suite =
  [
    ( "metamorphic",
      [
        QCheck_alcotest.to_alcotest prop_serial_bmmb;
        QCheck_alcotest.to_alcotest prop_pdes;
        QCheck_alcotest.to_alcotest prop_fmmb;
      ] );
  ]
