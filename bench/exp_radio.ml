(* Experiment E13: grounding the model's premise (footnote 2).

   The abstract MAC layer's defining assumption is Fprog << Fack.  Here we
   *implement* a MAC (Decay back-off over a slotted collision radio) and
   measure both delays on the footnote's own example — a star where every
   leaf contends — then run BMMB over the implemented MAC end-to-end. *)

let e13_radio () =
  Report.section
    "E13  Implemented MAC layer (Decay over collision radio): Fprog << Fack \
     (footnote 2)";
  Report.subsection
    "Star contention: hub's first reception vs slowest specific message";
  let rows =
    List.map
      (fun m ->
        let seeds = [ 1; 2; 3 ] in
        let samples =
          List.map
            (fun seed ->
              let r =
                Radio.Decay.star_contention ~m ~seed:((seed * 101) + m)
                  ~max_slots:5_000_000
              in
              let progress = Option.value r.first_reception ~default:(-1) in
              (float_of_int progress, float_of_int r.slowest))
            seeds
        in
        let avg f =
          List.fold_left (fun a s -> a +. f s) 0. samples /. 3.
        in
        let progress = avg fst and slowest = avg snd in
        [
          Report.i m;
          Report.f1 progress;
          Report.f1 slowest;
          Report.f1 (slowest /. Float.max 1. progress);
        ])
      [ 4; 8; 16; 32; 64 ]
  in
  Report.table
    ~header:
      [ "contenders m"; "progress slots (avg)"; "slowest specific (avg)";
        "gap" ]
    rows;
  Report.note
    "progress stays near-flat (polylog in m) while the specific-message \
     delay grows ~linearly: the Fprog << Fack premise, measured on an \
     implemented MAC.";
  Report.subsection "BMMB over the implemented MAC (line + flaky shortcuts)";
  let rows =
    List.map
      (fun n ->
        let rng = Dsim.Rng.create ~seed:(n * 7) in
        let g = Graphs.Gen.line n in
        let dual = Graphs.Dual.r_restricted_random rng ~g ~r:2 ~extra:4 in
        let contention =
          Graphs.Graph.max_degree (Graphs.Dual.unreliable dual) + 1
        in
        let params = Radio.Decay.default_params ~n ~max_contention:contention in
        let trace = Dsim.Trace.create () in
        let mac = Radio.Decay.create ~dual ~params ~rng ~trace () in
        let k = 2 in
        let tracker = Mmb.Problem.tracker ~dual [ (0, 0); (n - 1, 1) ] in
        let bmmb =
          Mmb.Bmmb.install ~mac:(Radio.Decay.handle mac)
            ~on_deliver:(fun ~node ~msg ~time ->
              Mmb.Problem.on_deliver tracker ~node ~msg ~time)
            ()
        in
        Mmb.Bmmb.arrive bmmb ~node:0 ~msg:0;
        Mmb.Bmmb.arrive bmmb ~node:(n - 1) ~msg:1;
        ignore
          (Radio.Decay.run mac ~max_slots:20_000_000 ~stop:(fun () ->
               Mmb.Problem.complete tracker));
        let time =
          match Mmb.Problem.completion_time tracker with
          | Some t -> t
          | None -> Float.infinity
        in
        (* Estimate the implemented MAC's parameters from its own trace
           (what a deployer would measure), then instantiate the paper's
           bound with them. *)
        let est = Amac.Estimate.estimate ~dual trace in
        let fack = est.Amac.Estimate.est_fack in
        let fprog = Float.max 1. est.Amac.Estimate.est_fprog in
        let bound = Mmb.Bounds.thm_3_16 ~d:(n - 1) ~k ~r:2 ~fack ~fprog in
        [
          Report.i n;
          Report.f1 time;
          Report.f1 fack;
          Report.f1 fprog;
          Report.f1 bound;
          Report.verdict (Mmb.Problem.complete tracker && time <= bound);
          Report.i (Radio.Decay.incomplete_acks mac);
        ])
      [ 8; 12; 16 ]
  in
  Report.table
    ~header:
      [ "n"; "completion (slots)"; "measured Fack"; "measured Fprog";
        "Thm 3.16 bound"; "<= bound"; "ack failures" ]
    rows;
  Report.note
    "Fack and Fprog are ESTIMATED from the run's own trace \
     (Amac.Estimate); the abstract-model theorem instantiated with them \
     still envelopes the full-stack execution — the deployment story of \
     the abstract MAC layer approach.";
  Report.subsection
    "Ablation: shrinking Decay's ack budget R (phases before the local ack)";
  let rows =
    List.map
      (fun scale ->
        let m = 16 in
        let dual = Graphs.Dual.of_equal (Graphs.Gen.star (m + 1)) in
        let rng = Dsim.Rng.create ~seed:404 in
        let base = Radio.Decay.default_params ~n:(m + 1) ~max_contention:m in
        let params =
          {
            base with
            Radio.Decay.phases_per_ack =
              max 1 (base.Radio.Decay.phases_per_ack / scale);
          }
        in
        let mac = Radio.Decay.create ~dual ~params ~rng () in
        let h = Radio.Decay.handle mac in
        let pending = ref m in
        for v = 0 to m do
          h.Amac.Mac_handle.h_attach ~node:v
            {
              Amac.Mac_intf.on_rcv = (fun ~src:_ _ -> ());
              on_ack = (fun _ -> decr pending);
            }
        done;
        for v = 1 to m do
          h.Amac.Mac_handle.h_bcast ~node:v v
        done;
        ignore
          (Radio.Decay.run mac ~max_slots:2_000_000 ~stop:(fun () ->
               !pending = 0));
        [
          Report.i params.Radio.Decay.phases_per_ack;
          Report.f1 (Radio.Decay.nominal_fack mac);
          Report.i (Radio.Decay.incomplete_acks mac);
        ])
      [ 1; 8; 32; 128 ]
  in
  Report.table
    ~header:[ "R (phases)"; "implemented Fack"; "incomplete acks (of 16)" ]
    rows;
  Report.note
    "Fack must stay linear in the contention: cutting R trades ack latency \
     for ack-correctness failures — the implementation-side reason the \
     model's Fack is large.";
  Report.subsection
    "Contrast MAC: TDMA, where Fprog ~ Fack ~ n (no gap to exploit)";
  let rows =
    List.map
      (fun n ->
        let dual = Graphs.Dual.of_equal (Graphs.Gen.line n) in
        let run_over name make_handle run_fn =
          let tracker = Mmb.Problem.tracker ~dual [ (0, 0); (n - 1, 1) ] in
          let h = make_handle () in
          let bmmb =
            Mmb.Bmmb.install ~mac:h
              ~on_deliver:(fun ~node ~msg ~time ->
                Mmb.Problem.on_deliver tracker ~node ~msg ~time)
              ()
          in
          Mmb.Bmmb.arrive bmmb ~node:0 ~msg:0;
          Mmb.Bmmb.arrive bmmb ~node:(n - 1) ~msg:1;
          run_fn (fun () -> Mmb.Problem.complete tracker);
          ( name,
            match Mmb.Problem.completion_time tracker with
            | Some t -> t
            | None -> Float.infinity )
        in
        let rng1 = Dsim.Rng.create ~seed:(n * 3) in
        let tdma = Radio.Tdma.create ~dual ~rng:rng1 () in
        let _, t_tdma =
          run_over "tdma"
            (fun () -> Radio.Tdma.handle tdma)
            (fun stop -> ignore (Radio.Tdma.run tdma ~max_slots:1_000_000 ~stop))
        in
        let rng2 = Dsim.Rng.create ~seed:(n * 3) in
        let params = Radio.Decay.default_params ~n ~max_contention:3 in
        let decay = Radio.Decay.create ~dual ~params ~rng:rng2 () in
        let _, t_decay =
          run_over "decay"
            (fun () -> Radio.Decay.handle decay)
            (fun stop ->
              ignore (Radio.Decay.run decay ~max_slots:20_000_000 ~stop))
        in
        [
          Report.i n;
          Report.f1 t_tdma;
          Report.f1 t_decay;
          Report.i (Radio.Tdma.transmissions tdma);
          Report.i (Radio.Decay.transmissions decay);
        ])
      [ 8; 16; 32 ]
  in
  Report.table
    ~header:
      [ "n"; "BMMB over TDMA"; "BMMB over Decay"; "tx (TDMA)"; "tx (Decay)" ]
    rows;
  Report.note
    "TDMA's frame couples Fprog to Fack (~n each): low-contention lines \
     favor its determinism, while Decay keeps progress contention-local.  \
     Under TDMA the paper's enhanced-model machinery would buy nothing — \
     Fprog ~ Fack is exactly the regime where BMMB is already optimal."

let e15_sinr () =
  Report.section
    "E15  The grey zone emerges from SINR physics (Section 2's geometric \
     model, grounded)";
  Report.note
    "Geometric SINR layer (alpha = 3, per-slot fading in [1, c^alpha], \
     beta = 2) calibrated so the worst-case solo range is 1 and the \
     best-case range is c = 2 — the dual-graph bands are then MEASURED, \
     not assumed.";
  let params = Radio.Sinr.default_params ~alpha:3. ~c:2. () in
  Report.subsection
    "Solo-transmission decode probability vs distance (5000 trials/point)";
  let rng = Dsim.Rng.create ~seed:15 in
  let rows =
    List.map
      (fun d ->
        let points =
          [| Graphs.Geometry.point 0. 0.; Graphs.Geometry.point d 0. |]
        in
        let r = Radio.Sinr.create ~points ~params ~rng () in
        let p = Radio.Sinr.decode_probability r ~u:0 ~j:1 ~trials:5000 in
        let band =
          if d <= 1. then "reliable (G)"
          else if d <= 2. then "grey zone (G' \\ G)"
          else "out of range"
        in
        [ Report.f2 d; Report.f2 p; band ])
      [ 0.5; 0.9; 1.0; 1.2; 1.5; 1.8; 2.0; 2.2; 2.6 ]
  in
  Report.table ~header:[ "distance"; "P(decode)"; "model band" ] rows;
  Report.note
    "P = 1 through distance 1, decays across (1, c], 0 beyond c: exactly \
     the reliable / unreliable / absent link classification the abstract \
     model postulates.";
  Report.subsection
    "Full four-layer stack: BMMB over Decay over SINR (chain of n points)";
  let module D = Radio.Decay.Over (Radio.Sinr) in
  let rows =
    List.map
      (fun n ->
        let rng = Dsim.Rng.create ~seed:(n * 19) in
        let points =
          Array.init n (fun i ->
              Graphs.Geometry.point
                ((float_of_int i *. 0.8) +. Dsim.Rng.float rng 0.1)
                (Dsim.Rng.float rng 0.3))
        in
        let dual = Graphs.Dual.of_embedding ~points ~c:2. in
        let radio = Radio.Sinr.create ~points ~params ~rng () in
        let contention =
          Graphs.Graph.max_degree (Graphs.Dual.unreliable dual) + 1
        in
        let mac_params = Radio.Decay.default_params ~n ~max_contention:contention in
        let mac = D.create ~radio ~dual ~params:mac_params ~rng () in
        let tracker = Mmb.Problem.tracker ~dual [ (0, 0); (n - 1, 1) ] in
        let bmmb =
          Mmb.Bmmb.install ~mac:(D.handle mac)
            ~on_deliver:(fun ~node ~msg ~time ->
              Mmb.Problem.on_deliver tracker ~node ~msg ~time)
            ()
        in
        Mmb.Bmmb.arrive bmmb ~node:0 ~msg:0;
        Mmb.Bmmb.arrive bmmb ~node:(n - 1) ~msg:1;
        ignore
          (D.run mac ~max_slots:20_000_000 ~stop:(fun () ->
               Mmb.Problem.complete tracker));
        [
          Report.i n;
          Report.verdict (Mmb.Problem.complete tracker);
          Report.f1
            (match Mmb.Problem.completion_time tracker with
            | Some t -> t
            | None -> Float.infinity);
          Report.i (D.incomplete_acks mac);
        ])
      [ 8; 12; 16 ]
  in
  Report.table
    ~header:[ "n"; "complete"; "slots"; "ack failures" ]
    rows;
  Report.note
    "the same BMMB binary runs over the abstract model, the collision \
     radio, and the SINR layer — the deployability claim of the abstract \
     MAC layer approach, executed."

let experiments =
  [ Exp.inline ~id:"e13" e13_radio; Exp.inline ~id:"e15" e15_sinr ]
