type arrivals = Batch | Poisson of float | Staggered of float

type dyn_spec = {
  dyn_kind : string; (* "static" | "flap" | "churn" | "adversary" *)
  dyn_epoch : float; (* stability parameter T (epoch length) *)
  dyn_period : int; (* flap *)
  dyn_churn : float; (* churn drop rate *)
  dyn_seed : int; (* churn / adversary *)
}

type spec = {
  name : string;
  protocol : [ `Bmmb | `Fmmb | `Fmmb_online ];
  topology : string;
  n : int;
  gprime : string;
  r : int;
  extra : int;
  k : int;
  fack : float;
  fprog : float;
  seed : int;
  scheduler : string;
  arrivals : arrivals;
  check : bool;
  repeat : int;
  dynamic : dyn_spec option;
  domains : int;  (* worker domains for the partitioned engine *)
  partitions : int;  (* partition count P (resolved: >= 1) *)
}

type run_result = {
  seed : int;
  complete : bool;
  time : float;
  bound : float option;
  bcasts : int option;
  mean_latency : float option;
  violations : int;
  epochs : int option;
}

(* --- Building blocks ----------------------------------------------------- *)

(* The names {!check_spec} accepts; the builders below raise on any other
   (a checked spec never reaches those branches). *)
let topologies = [ "line"; "ring"; "star"; "grid"; "geometric" ]
let regimes = [ "equal"; "r-restricted"; "arbitrary"; "greyzone" ]
let schedulers = [ "eager"; "random"; "adversarial"; "bursty" ]
let dynamic_kinds = [ "static"; "flap"; "churn"; "adversary" ]
let unknown what name = invalid_arg (Printf.sprintf "unknown %s %S" what name)

let build_dual { topology; gprime; n; r; extra; _ } ~seed =
  let rng = Dsim.Rng.create ~seed:(seed + 911) in
  match gprime with
  | "greyzone" ->
      let side = sqrt (float_of_int n /. 3.) in
      Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side ~c:2.
        ~p:0.4 ~max_tries:2000
  | regime -> (
      let g =
        match topology with
        | "line" -> Graphs.Gen.line n
        | "ring" -> Graphs.Gen.ring (max 3 n)
        | "star" -> Graphs.Gen.star n
        | "grid" ->
            let side = int_of_float (ceil (sqrt (float_of_int n))) in
            Graphs.Gen.grid ~rows:side ~cols:side
        | "geometric" ->
            let side = sqrt (float_of_int n /. 3.) in
            fst
              (Graphs.Gen.random_connected_geometric rng ~n ~width:side
                 ~height:side ~radius:1. ~max_tries:2000)
        | other -> unknown "topology" other
      in
      match regime with
      | "equal" -> Graphs.Dual.of_equal g
      | "r-restricted" -> Graphs.Dual.r_restricted_random rng ~g ~r ~extra
      | "arbitrary" -> Graphs.Dual.arbitrary_random rng ~g ~extra
      | other -> unknown "G' regime" other)

let build_scheduler = function
  | "eager" -> Amac.Schedulers.eager ()
  | "random" -> Amac.Schedulers.random_compliant ()
  | "adversarial" -> Amac.Schedulers.adversarial ()
  | "bursty" -> Amac.Schedulers.bursty ()
  | other -> unknown "scheduler" other

(* The versioned dual a resolved [dynamic] sub-object describes, over the
   base (union) dual the static builders produced. *)
let build_dyn ~dual dspec =
  match dspec.dyn_kind with
  | "static" -> Dyn.Dual.of_static dual
  | "flap" ->
      Dyn.Dual.of_schedule
        (Dyn.Schedule.flap ~base:dual ~epoch_len:dspec.dyn_epoch
           ~period:dspec.dyn_period)
  | "churn" ->
      Dyn.Dual.of_schedule
        (Dyn.Schedule.churn ~base:dual ~epoch_len:dspec.dyn_epoch
           ~rate:dspec.dyn_churn ~seed:dspec.dyn_seed)
  | "adversary" ->
      Dyn.Dual.of_schedule
        (Dyn.Schedule.adversary ~base:dual ~epoch_len:dspec.dyn_epoch
           ~seed:dspec.dyn_seed)
  | other -> unknown "dynamic kind" other

(* --- Parsing -------------------------------------------------------------- *)

let ( let* ) = Result.bind

(* Every field a scenario object may carry.  Anything else is almost
   certainly a typo silently replaced by a default, so we reject it with
   the full vocabulary instead of guessing. *)
let known_fields =
  [
    "name"; "protocol"; "topology"; "n"; "gprime"; "r"; "extra"; "k"; "fack";
    "fprog"; "seed"; "scheduler"; "arrivals"; "rate"; "gap"; "check";
    "repeat"; "sweep"; "dynamic"; "domains"; "partitions";
  ]

let dynamic_fields = [ "kind"; "epoch"; "period"; "churn"; "seed" ]

let validate json =
  match json with
  | Dsim.Json.Obj members -> (
      let unknown =
        List.filter (fun (k, _) -> not (List.mem k known_fields)) members
      in
      match unknown with
      | (k, _) :: _ ->
          Error
            (Printf.sprintf "unknown field %S; known fields: %s" k
               (String.concat ", " known_fields))
      | [] -> (
          let* () =
            match Dsim.Json.member_opt json "dynamic" with
            | None | Some Dsim.Json.Null -> Ok ()
            | Some (Dsim.Json.Obj dyn_members) -> (
                match
                  List.filter
                    (fun (k, _) -> not (List.mem k dynamic_fields))
                    dyn_members
                with
                | (k, _) :: _ ->
                    Error
                      (Printf.sprintf
                         "dynamic: unknown field %S; known fields: %s" k
                         (String.concat ", " dynamic_fields))
                | [] -> Ok ())
            | Some _ -> Error "field \"dynamic\" must be an object"
          in
          match Dsim.Json.member_opt json "sweep" with
          | None | Some Dsim.Json.Null -> Ok ()
          | Some (Dsim.Json.Obj sweep_members) -> (
              match
                List.filter
                  (fun (k, _) -> k <> "param" && k <> "values")
                  sweep_members
              with
              | (k, _) :: _ ->
                  Error
                    (Printf.sprintf
                       "sweep: unknown field %S (a sweep object takes \
                        \"param\" and \"values\")"
                       k)
              | [] -> Ok ())
          | Some _ -> Error "field \"sweep\" must be an object"))
  | _ -> Error "a scenario must be a JSON object"

(* Every rule a resolved spec must satisfy, whether it came from a
   scenario file or from an mmb_sim subcommand's flags.  A spec that
   passes runs: names are checked only where {!run} reads them (the
   topology not under "greyzone", the scheduler only for BMMB). *)
let check_spec s =
  let* () =
    match s.dynamic with
    | None -> Ok ()
    | Some d ->
        if not (List.mem d.dyn_kind dynamic_kinds) then
          Error
            (Printf.sprintf "dynamic: unknown kind %S; known kinds: %s"
               d.dyn_kind
               (String.concat ", " dynamic_kinds))
        else if not (d.dyn_epoch > 0.) then Error "dynamic: need epoch > 0"
        else if d.dyn_period < 1 then Error "dynamic: need period >= 1"
        else if not (d.dyn_churn >= 0. && d.dyn_churn <= 1.) then
          Error "dynamic: need churn in [0, 1]"
        else Ok ()
  in
  let* () =
    if s.n < 1 then Error "need n >= 1"
    else if s.k < 0 then Error "need k >= 0"
    else if not (s.fprog > 0. && s.fprog <= s.fack) then
      Error "need 0 < fprog <= fack"
    else if s.r < 1 then Error "need r >= 1"
    else if s.extra < 0 then Error "need extra >= 0"
    else Ok ()
  in
  let* () =
    if s.gprime <> "greyzone" && not (List.mem s.topology topologies) then
      Error (Printf.sprintf "unknown topology %S" s.topology)
    else if not (List.mem s.gprime regimes) then
      Error (Printf.sprintf "unknown G' regime %S" s.gprime)
    else if s.protocol = `Bmmb && not (List.mem s.scheduler schedulers) then
      Error (Printf.sprintf "unknown scheduler %S" s.scheduler)
    else
      match s.arrivals with
      | Poisson rate when not (rate > 0.) -> Error "need rate > 0"
      | Staggered gap when not (gap >= 0.) -> Error "need gap >= 0"
      | Poisson _ | Staggered _ when s.protocol = `Fmmb ->
          Error "protocol fmmb supports batch arrivals only (use fmmb-online)"
      | _ -> Ok ()
  in
  let partitioned = s.partitions > 1 in
  if s.repeat < 1 then Error "need repeat >= 1"
  else if s.dynamic <> None && s.protocol <> `Bmmb then
    Error
      "dynamic: protocol must be \"bmmb\" (FMMB's per-stage engines do not \
       take epoch schedules)"
  else if s.domains < 1 then Error "need domains >= 1"
  else if s.partitions < 1 then Error "need partitions >= 0 (0 = auto)"
  else if s.domains > s.partitions then
    Error
      (Printf.sprintf
         "domains-exceed-partitions: %d worker domains cannot be mapped \
          onto %d partition(s); raise \"partitions\" or lower \"domains\""
         s.domains s.partitions)
  else if partitioned && s.protocol <> `Bmmb then
    Error "partitions: the partitioned engine runs protocol \"bmmb\" only"
  else if partitioned && (match s.arrivals with Batch -> false | _ -> true)
  then Error "partitions: the partitioned engine is batch-arrivals only"
  else if partitioned && s.scheduler <> "random" then
    Error
      (Printf.sprintf
         "partitions: the partitioned engine fixes the \"random\" \
          scheduler family (got %S)"
         s.scheduler)
  else if
    partitioned
    && (match s.dynamic with
       | Some d -> d.dyn_kind = "adversary"
       | None -> false)
  then
    Error
      "partitions: the adversary oracle needs global delivered-set \
       knowledge and cannot be partitioned; use kind static, flap, or churn"
  else Ok ()

let of_json json =
  let* () = validate json in
  let* name = Dsim.Json.member_str json "name" ~default:"scenario" in
  let* protocol_str = Dsim.Json.member_str json "protocol" ~default:"bmmb" in
  let* protocol =
    match protocol_str with
    | "bmmb" -> Ok `Bmmb
    | "fmmb" -> Ok `Fmmb
    | "fmmb-online" -> Ok `Fmmb_online
    | other -> Error (Printf.sprintf "unknown protocol %S" other)
  in
  let* topology = Dsim.Json.member_str json "topology" ~default:"line" in
  let* n = Dsim.Json.member_int json "n" ~default:30 in
  let* gprime = Dsim.Json.member_str json "gprime" ~default:"equal" in
  let* r = Dsim.Json.member_int json "r" ~default:2 in
  let* extra = Dsim.Json.member_int json "extra" ~default:10 in
  let* k = Dsim.Json.member_int json "k" ~default:4 in
  let* fack = Dsim.Json.member_float json "fack" ~default:20. in
  let* fprog = Dsim.Json.member_float json "fprog" ~default:1. in
  let* seed = Dsim.Json.member_int json "seed" ~default:1 in
  let* scheduler = Dsim.Json.member_str json "scheduler" ~default:"random" in
  let* arrivals_str = Dsim.Json.member_str json "arrivals" ~default:"batch" in
  let* arrivals =
    match arrivals_str with
    | "batch" -> Ok Batch
    | "poisson" ->
        let* rate = Dsim.Json.member_float json "rate" ~default:0.01 in
        Ok (Poisson rate)
    | "staggered" ->
        let* gap = Dsim.Json.member_float json "gap" ~default:10. in
        Ok (Staggered gap)
    | other -> Error (Printf.sprintf "unknown arrivals %S" other)
  in
  let* check =
    match Dsim.Json.member_opt json "check" with
    | None -> Ok false
    | Some v -> Dsim.Json.to_bool v
  in
  let* repeat = Dsim.Json.member_int json "repeat" ~default:1 in
  let* dynamic =
    match Dsim.Json.member_opt json "dynamic" with
    | None | Some Dsim.Json.Null -> Ok None
    | Some dyn ->
        let* dyn_kind = Dsim.Json.member_str dyn "kind" ~default:"static" in
        let* dyn_epoch = Dsim.Json.member_float dyn "epoch" ~default:10. in
        let* dyn_period = Dsim.Json.member_int dyn "period" ~default:1 in
        let* dyn_churn = Dsim.Json.member_float dyn "churn" ~default:0.2 in
        let* dyn_seed = Dsim.Json.member_int dyn "seed" ~default:0 in
        Ok (Some { dyn_kind; dyn_epoch; dyn_period; dyn_churn; dyn_seed })
  in
  let* domains = Dsim.Json.member_int json "domains" ~default:1 in
  (* [partitions] 0 means auto: one partition per requested domain.  The
     resolution uses the *requested* count (never the machine's core
     count), so the resolved spec — a campaign cache key — is identical
     on every host. *)
  let* partitions = Dsim.Json.member_int json "partitions" ~default:0 in
  let partitions = if partitions = 0 then max domains 1 else partitions in
  let spec =
    {
      name;
      protocol;
      topology;
      n;
      gprime;
      r;
      extra;
      k;
      fack;
      fprog;
      seed;
      scheduler;
      arrivals;
      check;
      repeat;
      dynamic;
      domains;
      partitions;
    }
  in
  let* () = check_spec spec in
  Ok spec

let of_string text =
  let* json = Dsim.Json.parse text in
  of_json json

let default = Result.get_ok (of_json (Dsim.Json.Obj []))

let override json key value =
  match json with
  | Dsim.Json.Obj members ->
      Dsim.Json.Obj ((key, value) :: List.remove_assoc key members)
  | other -> other

(* Dotted sweep params ("dynamic.epoch", "dynamic.churn") override inside
   the named sub-object, creating it if absent. *)
let override_path json param value =
  match String.index_opt param '.' with
  | None -> override json param value
  | Some i ->
      let outer = String.sub param 0 i in
      let inner = String.sub param (i + 1) (String.length param - i - 1) in
      let sub =
        match Dsim.Json.member_opt json outer with
        | Some (Dsim.Json.Obj _ as o) -> o
        | _ -> Dsim.Json.Obj []
      in
      override json outer (override sub inner value)

let expand json =
  let* () = validate json in
  match Dsim.Json.member_opt json "sweep" with
  | None ->
      let* spec = of_json json in
      Ok [ spec ]
  | Some sweep ->
      let* param = Dsim.Json.member_str sweep "param" ~default:"" in
      if param = "" then Error "sweep: missing \"param\""
      else
        let* values =
          match Dsim.Json.member sweep "values" with
          | Ok v -> Dsim.Json.to_list v
          | Error e -> Error e
        in
        if values = [] then Error "sweep: empty \"values\""
        else begin
          let base = override json "sweep" Dsim.Json.Null in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | v :: rest -> (
                match v with
                | Dsim.Json.Number x ->
                    let named =
                      override
                        (override_path base param (Dsim.Json.Number x))
                        "name"
                        (Dsim.Json.String
                           (Printf.sprintf "%s [%s=%s]"
                              (match Dsim.Json.member_opt json "name" with
                              | Some (Dsim.Json.String s) -> s
                              | _ -> "scenario")
                              param
                              (Dsim.Json.to_string (Dsim.Json.Number x))))
                    in
                    let* spec = of_json named in
                    go (spec :: acc) rest
                | _ -> Error "sweep: values must be numbers")
          in
          go [] values
        end

let expand_string text =
  let* json = Dsim.Json.parse text in
  expand json

let load_file path =
  let* text =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error e -> Error e
  in
  match expand_string text with
  | Ok specs -> Ok specs
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

(* The fully-resolved spec as JSON: every default baked in, so it is a
   complete content address for campaign job keying (two scenario files
   that elaborate to the same spec share cache entries). *)
let spec_to_json spec =
  let num_i i = Dsim.Json.Number (float_of_int i) in
  Dsim.Json.Obj
    ([
       ("name", Dsim.Json.String spec.name);
       ( "protocol",
         Dsim.Json.String
           (match spec.protocol with
           | `Bmmb -> "bmmb"
           | `Fmmb -> "fmmb"
           | `Fmmb_online -> "fmmb-online") );
       ("topology", Dsim.Json.String spec.topology);
       ("n", num_i spec.n);
       ("gprime", Dsim.Json.String spec.gprime);
       ("r", num_i spec.r);
       ("extra", num_i spec.extra);
       ("k", num_i spec.k);
       ("fack", Dsim.Json.Number spec.fack);
       ("fprog", Dsim.Json.Number spec.fprog);
       ("seed", num_i spec.seed);
       ("scheduler", Dsim.Json.String spec.scheduler);
       ( "arrivals",
         Dsim.Json.String
           (match spec.arrivals with
           | Batch -> "batch"
           | Poisson _ -> "poisson"
           | Staggered _ -> "staggered") );
     ]
    @ (match spec.arrivals with
      | Poisson rate -> [ ("rate", Dsim.Json.Number rate) ]
      | Staggered gap -> [ ("gap", Dsim.Json.Number gap) ]
      | Batch -> [])
    @ [
        ("check", Dsim.Json.Bool spec.check); ("repeat", num_i spec.repeat);
        ("domains", num_i spec.domains);
        ("partitions", num_i spec.partitions);
      ]
    @
    match spec.dynamic with
    | None -> []
    | Some d ->
        [
          ( "dynamic",
            Dsim.Json.Obj
              [
                ("kind", Dsim.Json.String d.dyn_kind);
                ("epoch", Dsim.Json.Number d.dyn_epoch);
                ("period", num_i d.dyn_period);
                ("churn", Dsim.Json.Number d.dyn_churn);
                ("seed", num_i d.dyn_seed);
              ] );
        ])

(* --- Execution ------------------------------------------------------------ *)

type engine =
  | Serial of Runner.bmmb_result
  | Partitioned of Runner.pdes_result
  | Online of Runner.online_result
  | Fmmb of Runner.fmmb_result
  | Fmmb_online of { result : Fmmb_online.result; mean_latency : float option }

type execution = {
  dual : Graphs.Dual.t;
  dyn : Dyn.Dual.t option;
  engine : engine;
}

(* The one place a spec becomes a run: every subcommand and every
   scenario cell goes through here, so the same settings give the same
   execution.  Seeds: network [seed + 911], assignment or arrivals
   [seed + 13], engine [seed], FMMB-online rounds [seed + 31]. *)
let run ?(instrument = fun _ _ -> Instrument.none) ?setup ?trace_out spec
    ~seed =
  (match check_spec spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Scenario.run: " ^ e));
  let dual = build_dual spec ~seed in
  let n = Graphs.Dual.n dual in
  let k = spec.k and fack = spec.fack and fprog = spec.fprog in
  let rng = Dsim.Rng.create ~seed:(seed + 13) in
  let arrivals () =
    match spec.arrivals with
    | Batch -> Problem.at_time_zero (Problem.random rng ~n ~k)
    | Poisson rate -> Problem.poisson_arrivals rng ~n ~k ~rate
    | Staggered gap ->
        Problem.staggered_arrivals ~node:(Dsim.Rng.int rng n) ~k ~gap
  in
  let partitioned = spec.partitions > 1 in
  (* The partitioned engine builds one private wrapper per partition. *)
  let dyn =
    if partitioned then None else Option.map (build_dyn ~dual) spec.dynamic
  in
  let instrument = instrument dual dyn in
  let engine =
    match (spec.protocol, spec.arrivals) with
    | `Bmmb, Batch when partitioned ->
        Partitioned
          (Runner.run_bmmb_pdes ~dual ~fack ~fprog
             ~policy:(build_scheduler spec.scheduler)
             ~assignment:(Problem.random rng ~n ~k) ~seed
             ~partitions:spec.partitions ~domains:spec.domains
             ?mk_dyn:
               (Option.map (fun d () -> build_dyn ~dual d) spec.dynamic)
             ?trace_out ())
    | `Bmmb, Batch ->
        Serial
          (Runner.run_bmmb ~dual ~fack ~fprog
             ~policy:(build_scheduler spec.scheduler)
             ~assignment:(Problem.random rng ~n ~k) ~seed
             ~check_compliance:spec.check ?dyn ~instrument ?setup ())
    | `Bmmb, _ ->
        Online
          (Runner.run_bmmb_online ~dual ~fack ~fprog
             ~policy:(build_scheduler spec.scheduler)
             ~arrivals:(arrivals ()) ~seed ~check_compliance:spec.check ?dyn
             ~instrument ?setup ())
    | `Fmmb, _ ->
        Fmmb
          (Runner.run_fmmb ~dual ~fprog ~c:2.
             ~policy:(Amac.Enhanced_mac.minimal_random ())
             ~assignment:(Problem.random rng ~n ~k) ~seed ~instrument ())
    | `Fmmb_online, _ ->
        let arrivals = arrivals () in
        let tracker = Problem.tracker_timed ~dual arrivals in
        let result =
          Fmmb_online.run ~dual ~fprog
            ~rng:(Dsim.Rng.create ~seed:(seed + 31))
            ~policy:(Amac.Enhanced_mac.minimal_random ())
            ~c:2. ~arrivals ~tracker ~max_rounds:1_000_000 ()
        in
        let latencies =
          List.filter_map
            (fun (_, _, msg) -> Problem.message_latency tracker ~msg)
            arrivals
        in
        let mean_latency =
          match latencies with
          | [] -> None
          | ls ->
              Some
                (List.fold_left ( +. ) 0. ls /. float_of_int (List.length ls))
        in
        Fmmb_online { result; mean_latency }
  in
  { dual; dyn; engine }

(* One report row per execution. *)
let row ~seed { dyn; engine; _ } =
  let make ?bound ?bcasts ?mean_latency ?(violations = []) complete time =
    {
      seed;
      complete;
      time;
      bound;
      bcasts;
      mean_latency;
      violations = List.length violations;
      (* Epoch windows entered by the end of the run (1 for static). *)
      epochs = Option.map (fun d -> Dyn.Dual.epoch d + 1) dyn;
    }
  in
  match engine with
  | Serial r ->
      make r.complete r.time ~bound:r.upper_bound ~bcasts:r.bcasts
        ~violations:r.compliance_violations
  | Partitioned r ->
      make r.pd_complete r.pd_time ~bound:r.pd_upper_bound ~bcasts:r.pd_bcasts
  | Online r ->
      make r.complete' r.makespan ~bcasts:r.bcasts'
        ~mean_latency:r.mean_latency ~violations:r.compliance_violations'
  | Fmmb { fmmb; _ } -> make fmmb.complete fmmb.time
  | Fmmb_online { result; mean_latency } ->
      make result.complete result.time ?mean_latency

let execute ?instrument spec =
  List.init spec.repeat (fun i ->
      let seed = spec.seed + i in
      row ~seed (run ?instrument spec ~seed))

(* --- Reporting ------------------------------------------------------------ *)

let report spec runs =
  let buf = Buffer.create 512 in
  let dyn = spec.dynamic <> None in
  Buffer.add_string buf (Printf.sprintf "scenario: %s\n" spec.name);
  Buffer.add_string buf
    (Printf.sprintf "%6s %9s %10s %10s %8s %9s %6s%s\n" "seed" "complete"
       "time" "bound" "bcasts" "latency" "viols"
       (if dyn then Printf.sprintf " %7s" "epochs" else ""));
  List.iter
    (fun r ->
      let opt_f = function Some f -> Printf.sprintf "%.1f" f | None -> "-" in
      let opt_i = function Some i -> string_of_int i | None -> "-" in
      Buffer.add_string buf
        (Printf.sprintf "%6d %9b %10.1f %10s %8s %9s %6d%s\n" r.seed r.complete
           r.time (opt_f r.bound) (opt_i r.bcasts) (opt_f r.mean_latency)
           r.violations
           (if dyn then Printf.sprintf " %7s" (opt_i r.epochs) else "")))
    runs;
  let times = List.map (fun r -> r.time) runs in
  (match times with
  | [] -> ()
  | _ ->
      let s = Dsim.Stats.summarize times in
      Buffer.add_string buf
        (Fmt.str "summary: time %a@." Dsim.Stats.pp_summary s));
  Buffer.contents buf

let result_json spec runs =
  let run_to_json r =
    Dsim.Json.Obj
      ([
         ("seed", Dsim.Json.Number (float_of_int r.seed));
         ("complete", Dsim.Json.Bool r.complete);
         ("time", Dsim.Json.Number r.time);
         ("violations", Dsim.Json.Number (float_of_int r.violations));
       ]
      @ (match r.bound with
        | Some b -> [ ("bound", Dsim.Json.Number b) ]
        | None -> [])
      @ (match r.bcasts with
        | Some b -> [ ("bcasts", Dsim.Json.Number (float_of_int b)) ]
        | None -> [])
      @ (match r.mean_latency with
        | Some l -> [ ("mean_latency", Dsim.Json.Number l) ]
        | None -> [])
      @
      match r.epochs with
      | Some e -> [ ("epochs", Dsim.Json.Number (float_of_int e)) ]
      | None -> [])
  in
  Dsim.Json.Obj
    [
      ("name", Dsim.Json.String spec.name);
      ("runs", Dsim.Json.List (List.map run_to_json runs));
    ]
