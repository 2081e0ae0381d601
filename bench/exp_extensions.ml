(* Experiments E10-E12: extensions beyond the paper's evaluation —
   the online MMB variant (footnote 4), the round-construction claim of
   Section 4.1, and the Section-5 future-work protocol (leader election). *)

(* An online run's mean and worst per-message latency (0 when nothing
   completed). *)
let mean_latency r =
  Option.value (Mmb.Problem.mean_latency r.Mmb.Runner.latencies) ~default:0.

let max_latency r =
  List.fold_left (fun a (_, l) -> Float.max a l) 0. r.Mmb.Runner.latencies

let e10_online () =
  Report.section
    "E10  Online MMB (footnote 4): latency under continuous arrivals";
  let fack = 20. and fprog = 1. in
  Report.subsection
    "Poisson arrivals on a line n = 20 (k = 30): saturation near rate = 1/Fack";
  Report.note
    "each node must relay every message and each relay holds the channel \
     for up to Fack, so the sustainable injection rate is ~1/Fack = %.3f."
    (1. /. fack);
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line 20) in
  let rows =
    List.map
      (fun rate ->
        let runs =
          List.map
            (fun seed ->
              let rng = Dsim.Rng.create ~seed:(seed * 17) in
              let arrivals =
                Mmb.Problem.poisson_arrivals rng ~n:20 ~k:30 ~rate
              in
              Obs.Run.bmmb_online ~dual ~fack ~fprog
                ~policy:(Amac.Schedulers.adversarial ())
                ~arrivals ~seed ())
            [ 1; 2; 3 ]
        in
        let avg f =
          List.fold_left (fun a r -> a +. f r) 0. runs /. 3.
        in
        [
          Printf.sprintf "%.4f" rate;
          Report.f1 (avg mean_latency);
          Report.f1 (avg max_latency);
          Report.f1 (avg (fun r -> r.Mmb.Runner.time));
        ])
      [ 0.002; 0.01; 0.05; 0.2 ]
  in
  Report.table
    ~header:[ "rate"; "mean latency"; "max latency"; "makespan" ]
    rows;
  Report.note
    "below saturation, per-message latency is the k=1 flooding time; \
     above it, queues build and latency grows with the backlog.";
  Report.subsection
    "Queue discipline under staggered arrivals (choke hub, gap = 1)";
  let dual = Graphs.Dual.choke ~k:2 in
  let arrivals = Mmb.Problem.staggered_arrivals ~node:0 ~k:12 ~gap:1. in
  let rows =
    List.map
      (fun (name, discipline) ->
        let res =
          Obs.Run.bmmb_online ~dual ~fack ~fprog
            ~policy:(Amac.Schedulers.adversarial ())
            ~arrivals ~seed:5 ~discipline ()
        in
        [ name; Report.f1 (mean_latency res); Report.f1 (max_latency res) ])
      [ ("FIFO", `Fifo); ("LIFO", `Lifo) ]
  in
  Report.table ~header:[ "discipline"; "mean latency"; "max latency" ] rows;
  Report.note
    "with online arrivals the FIFO hypothesis earns its keep: LIFO lets \
     fresh messages overtake queued ones and starves the oldest."

let e11_round_construction () =
  Report.section
    "E11  Section 4.1's construction: rounds from abort + timers";
  Report.note
    "FMMB run over (a) the direct round-semantics engine and (b) rounds \
     constructed on the continuous engine via abort/timers (Round_sync).  \
     The claim: the construction preserves the algorithm's guarantees.";
  let rows =
    List.concat_map
      (fun n ->
        let rng = Dsim.Rng.create ~seed:(n * 3) in
        let side = sqrt (float_of_int n /. 3.) in
        let dual =
          Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side
            ~c:2. ~p:0.4 ~max_tries:1000
        in
        let assignment = Mmb.Problem.singleton rng ~n ~k:3 in
        let run backend =
          Obs.Run.fmmb ~dual ~fprog:1. ~c:2.
            ~policy:(Amac.Enhanced_mac.minimal_random ())
            ~assignment ~seed:(n + 1) ~backend ()
        in
        List.map
          (fun (label, backend) ->
            let r = run backend in
            [
              Report.i n;
              label;
              Report.i r.Mmb.Runner.fmmb.Mmb.Fmmb.total_rounds;
              Report.verdict r.Mmb.Runner.fmmb.Mmb.Fmmb.complete;
              Report.verdict r.Mmb.Runner.fmmb.Mmb.Fmmb.mis_valid;
            ])
          [
            ("direct rounds", Mmb.Fmmb.Rounds);
            ( "abort-constructed",
              Mmb.Fmmb.Continuous Amac.Round_sync.Minimal );
          ])
      [ 20; 40 ]
  in
  Report.table
    ~header:[ "n"; "execution"; "rounds"; "complete"; "MIS valid" ]
    rows;
  Report.note
    "both executions solve MMB with a valid MIS; round counts differ only \
     through the randomized subroutines' draws."

let e12_leader_election () =
  Report.section
    "E12  Leader election (Section 5 future work): flooding-max on the \
     standard model";
  Report.subsection "Election time vs D (line), Fack = 20, Fprog = 1";
  let rows =
    List.map
      (fun n ->
        let dual = Graphs.Dual.of_equal (Graphs.Gen.line n) in
        let run policy =
          let res, _ =
            Mmb.Leader.run ~dual ~fack:20. ~fprog:1. ~policy ~seed:n ()
          in
          res
        in
        let adv = run (Amac.Schedulers.adversarial ()) in
        let eager = run (Amac.Schedulers.eager ()) in
        [
          Report.i (n - 1);
          Report.f1 adv.Mmb.Leader.time;
          Report.f1 eager.Mmb.Leader.time;
          Report.i adv.Mmb.Leader.bcasts;
          Report.verdict (adv.Mmb.Leader.elected && eager.Mmb.Leader.elected);
        ])
      [ 8; 16; 32; 64 ]
  in
  Report.table
    ~header:[ "D"; "adversarial time"; "eager time"; "bcasts (adv)"; "elected" ]
    rows;
  Report.subsection "Correctness across G' regimes and schedulers (grid 5x5)";
  let g = Graphs.Gen.grid ~rows:5 ~cols:5 in
  let rows =
    List.concat_map
      (fun (gname, dual) ->
        List.map
          (fun (sname, make) ->
            let res, violations =
              Mmb.Leader.run ~dual ~fack:10. ~fprog:1. ~policy:(make ())
                ~seed:3 ~check_compliance:true ()
            in
            [
              gname;
              sname;
              Report.verdict res.Mmb.Leader.elected;
              Report.i (List.length violations);
            ])
          (Amac.Schedulers.all_standard ()))
      [
        ("G' = G", Graphs.Dual.of_equal g);
        ( "r-restricted",
          Graphs.Dual.r_restricted_random (Dsim.Rng.create ~seed:1) ~g ~r:3
            ~extra:12 );
        ( "arbitrary",
          Graphs.Dual.arbitrary_random (Dsim.Rng.create ~seed:2) ~g ~extra:12
        );
      ]
  in
  Report.table
    ~header:[ "G' regime"; "scheduler"; "elected"; "violations" ]
    rows;
  Report.note
    "agreement on the maximum holds under every regime: the max is \
     monotone and idempotent, so unreliable links can only help — the \
     structural cousin of BMMB's Theorem 3.4 correctness."

let e14_online_fmmb () =
  Report.section
    "E14  k-oblivious streaming FMMB: gather/spread interleave, no k \
     anywhere";
  Report.note
    "The paper's FMMB sizes its gather budget with k; the streaming \
     variant interleaves gather and spread periods with purely local \
     rules.  Cost: <= 2x rounds on batch workloads.  Benefit: k-oblivious \
     and online.";
  Report.subsection "Batch workloads: staged vs streaming rounds";
  let grey ~seed ~n =
    let rng = Dsim.Rng.create ~seed in
    let side = sqrt (float_of_int n /. 3.) in
    Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side ~c:2.
      ~p:0.4 ~max_tries:1000
  in
  let rows =
    List.map
      (fun k ->
        let n = 40 in
        let dual = grey ~seed:(k * 5 + 1) ~n in
        let rng = Dsim.Rng.create ~seed:(k * 11) in
        let assignment = Mmb.Problem.singleton rng ~n ~k in
        let staged =
          Obs.Run.fmmb ~dual ~fprog:1. ~c:2.
            ~policy:(Amac.Enhanced_mac.minimal_random ())
            ~assignment ~seed:(k + 1) ()
        in
        let stream =
          Mmb.Runner.run_fmmb_online ~dual ~fprog:1. ~c:2.
            ~policy:(Amac.Enhanced_mac.minimal_random ())
            ~arrivals:(Mmb.Problem.at_time_zero assignment)
            ~seed:(k + 2) ~max_rounds:400_000
        in
        let s = staged.Mmb.Runner.fmmb.Mmb.Fmmb.total_rounds in
        let o = stream.Mmb.Runner.fmmb.Mmb.Fmmb.total_rounds in
        [
          Report.i k;
          Report.i s;
          Report.i o;
          Report.f2 (float_of_int o /. float_of_int s);
          Report.verdict
            (staged.Mmb.Runner.fmmb.Mmb.Fmmb.complete
            && stream.Mmb.Runner.fmmb.Mmb.Fmmb.complete);
        ])
      [ 2; 4; 8 ]
  in
  Report.table
    ~header:[ "k"; "staged rounds"; "streaming rounds"; "ratio"; "complete" ]
    rows;
  Report.subsection "Online arrivals: per-message latency percentiles";
  let n = 40 in
  let dual = grey ~seed:77 ~n in
  let rng = Dsim.Rng.create ~seed:78 in
  let arrivals = Mmb.Problem.poisson_arrivals rng ~n ~k:10 ~rate:0.002 in
  let res =
    Mmb.Runner.run_fmmb_online ~dual ~fprog:1. ~c:2.
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~arrivals ~seed:79 ~max_rounds:800_000
  in
  (match List.map snd res.Mmb.Runner.latencies' with
  | [] -> Report.note "no message completed (unexpected)"
  | latencies ->
      let s = Dsim.Stats.summarize latencies in
      Report.table
        ~header:[ "complete"; "mean"; "p50"; "p90"; "max" ]
        [
          [
            Report.verdict res.Mmb.Runner.fmmb.Mmb.Fmmb.complete;
            Report.f1 s.Dsim.Stats.mean;
            Report.f1 s.Dsim.Stats.p50;
            Report.f1 s.Dsim.Stats.p90;
            Report.f1 s.Dsim.Stats.max;
          ];
        ]);
  Report.note
    "late arrivals are gathered and spread by the same local rules — the \
     online MMB variant footnote 4 points at, solved in the enhanced model."

let e16_structuring () =
  Report.section
    "E16  Network structuring (Section 5): consensus and a CDS backbone";
  Report.subsection "Consensus (leader-based flooding) across regimes";
  let g = Graphs.Gen.grid ~rows:5 ~cols:5 in
  let proposals = Array.init 25 (fun v -> 1000 + v) in
  let rows =
    List.concat_map
      (fun (gname, dual) ->
        List.map
          (fun (sname, make) ->
            let res, violations =
              Mmb.Consensus.run ~dual ~fack:10. ~fprog:1. ~policy:(make ())
                ~proposals ~seed:6 ~check_compliance:true ()
            in
            [
              gname;
              sname;
              Report.verdict
                (res.Mmb.Consensus.agreed && res.Mmb.Consensus.valid);
              Report.f1 res.Mmb.Consensus.time;
              Report.i (List.length violations);
            ])
          [
            ("eager", fun () -> Amac.Schedulers.eager ());
            ("adversarial", fun () -> Amac.Schedulers.adversarial ());
          ])
      [
        ("G' = G", Graphs.Dual.of_equal g);
        ( "arbitrary",
          Graphs.Dual.arbitrary_random (Dsim.Rng.create ~seed:9) ~g ~extra:12
        );
      ]
  in
  Report.table
    ~header:[ "G' regime"; "scheduler"; "agree+valid"; "time"; "violations" ]
    rows;
  Report.subsection "CDS backbone: size and broadcast savings (grey zones)";
  let grey ~seed ~n =
    let rng = Dsim.Rng.create ~seed in
    let side = sqrt (float_of_int n /. 3.) in
    Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side ~c:2.
      ~p:0.4 ~max_tries:1000
  in
  let rows =
    List.map
      (fun n ->
        let dual = grey ~seed:(n * 7 + 3) ~n in
        let rng = Dsim.Rng.create ~seed:(n + 2) in
        let res =
          Mmb.Structuring.run ~dual ~rng
            ~policy:(Amac.Enhanced_mac.minimal_random ())
            ~c:2. ()
        in
        let backbone = res.Mmb.Structuring.backbone in
        let mis_size =
          Array.fold_left (fun a b -> if b then a + 1 else a) 0
            res.Mmb.Structuring.mis
        in
        (* Broadcast cost: full flooding vs backbone flooding, k = 3. *)
        let flood ?relay () =
          let sim = Dsim.Sim.create () in
          let mac =
            Amac.Standard_mac.create ~sim ~dual ~fack:10. ~fprog:1.
              ~policy:(Amac.Schedulers.random_compliant ())
              ~rng:(Dsim.Rng.create ~seed:(n + 5)) ()
          in
          let assignment = [ (0, 0); (n / 2, 1); (n - 1, 2) ] in
          let tracker = Mmb.Problem.tracker ~dual assignment in
          let bmmb =
            Mmb.Bmmb.install ?relay ~mac:(Amac.Mac_handle.of_standard mac)
              ~on_deliver:(fun ~node ~msg ~time ->
                Mmb.Problem.on_deliver tracker ~node ~msg ~time)
              ()
          in
          List.iter
            (fun (node, msg) ->
              ignore
                (Dsim.Sim.schedule_at sim ~time:0. (fun () ->
                     Mmb.Bmmb.arrive bmmb ~node ~msg)))
            assignment;
          ignore (Dsim.Sim.run ~max_events:10_000_000 sim);
          (Mmb.Problem.complete tracker, Amac.Standard_mac.bcast_count mac)
        in
        let full_ok, full_b = flood () in
        let bb_ok, bb_b = flood ~relay:(fun v -> backbone.(v)) () in
        [
          Report.i n;
          Report.i mis_size;
          Report.i res.Mmb.Structuring.backbone_size;
          Report.verdict res.Mmb.Structuring.valid;
          Report.i full_b;
          Report.i bb_b;
          Report.verdict (full_ok && bb_ok);
          Report.f2 (float_of_int bb_b /. float_of_int full_b);
        ])
      [ 30; 60; 90 ]
  in
  Report.table
    ~header:
      [ "n"; "|MIS|"; "|backbone|"; "CDS valid"; "flood bcasts";
        "backbone bcasts"; "both complete"; "cost ratio" ]
    rows;
  Report.note
    "the backbone is a connected dominating set built with local rules on \
     the enhanced model; restricting BMMB's relaying to it preserves \
     completion and cuts broadcast cost proportionally to |backbone|/n."

let experiments =
  [
    Exp.inline ~id:"e10" e10_online;
    Exp.inline ~id:"e11" e11_round_construction;
    Exp.inline ~id:"e12" e12_leader_election;
    Exp.inline ~id:"e14" e14_online_fmmb;
    Exp.inline ~id:"e16" e16_structuring;
  ]
