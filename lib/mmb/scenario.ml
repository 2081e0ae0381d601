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

let build_dual ~topology ~gprime ~n ~r ~extra ~seed =
  let rng = Dsim.Rng.create ~seed:(seed + 911) in
  match gprime with
  | "greyzone" ->
      let side = sqrt (float_of_int n /. 3.) in
      Ok
        (Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side
           ~c:2. ~p:0.4 ~max_tries:2000)
  | regime -> (
      let base =
        match topology with
        | "line" -> Ok (Graphs.Gen.line n)
        | "ring" -> Ok (Graphs.Gen.ring (max 3 n))
        | "star" -> Ok (Graphs.Gen.star n)
        | "grid" ->
            let side = int_of_float (ceil (sqrt (float_of_int n))) in
            Ok (Graphs.Gen.grid ~rows:side ~cols:side)
        | "geometric" ->
            let side = sqrt (float_of_int n /. 3.) in
            let g, _ =
              Graphs.Gen.random_connected_geometric rng ~n ~width:side
                ~height:side ~radius:1. ~max_tries:2000
            in
            Ok g
        | other -> Error (Printf.sprintf "unknown topology %S" other)
      in
      match base with
      | Error e -> Error e
      | Ok g -> (
          match regime with
          | "equal" -> Ok (Graphs.Dual.of_equal g)
          | "r-restricted" ->
              Ok (Graphs.Dual.r_restricted_random rng ~g ~r ~extra)
          | "arbitrary" -> Ok (Graphs.Dual.arbitrary_random rng ~g ~extra)
          | other -> Error (Printf.sprintf "unknown G' regime %S" other)))

let build_scheduler = function
  | "eager" -> Ok (Amac.Schedulers.eager ())
  | "random" -> Ok (Amac.Schedulers.random_compliant ())
  | "adversarial" -> Ok (Amac.Schedulers.adversarial ())
  | "bursty" -> Ok (Amac.Schedulers.bursty ())
  | other -> Error (Printf.sprintf "unknown scheduler %S" other)

(* The versioned dual a resolved [dynamic] sub-object describes, over the
   base (union) dual the static builders produced. *)
let build_dyn ~dual dspec =
  match dspec.dyn_kind with
  | "static" -> Ok (Dyn.Dual.of_static dual)
  | "flap" ->
      Ok
        (Dyn.Dual.of_schedule
           (Dyn.Schedule.flap ~base:dual ~epoch_len:dspec.dyn_epoch
              ~period:dspec.dyn_period))
  | "churn" ->
      Ok
        (Dyn.Dual.of_schedule
           (Dyn.Schedule.churn ~base:dual ~epoch_len:dspec.dyn_epoch
              ~rate:dspec.dyn_churn ~seed:dspec.dyn_seed))
  | "adversary" ->
      Ok
        (Dyn.Dual.of_schedule
           (Dyn.Schedule.adversary ~base:dual ~epoch_len:dspec.dyn_epoch
              ~seed:dspec.dyn_seed))
  | other ->
      Error
        (Printf.sprintf
           "unknown dynamic kind %S; known kinds: static, flap, churn, \
            adversary"
           other)

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
let dynamic_kinds = [ "static"; "flap"; "churn"; "adversary" ]

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

let check_ranges ~n ~k ~r ~extra ~fack ~fprog =
  if n < 1 then Error "need n >= 1"
  else if k < 0 then Error "need k >= 0"
  else if not (fprog > 0. && fprog <= fack) then
    Error "need 0 < fprog <= fack"
  else if r < 1 then Error "need r >= 1"
  else if extra < 0 then Error "need extra >= 0"
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
        let* () =
          if List.mem dyn_kind dynamic_kinds then Ok ()
          else
            Error
              (Printf.sprintf "dynamic: unknown kind %S; known kinds: %s"
                 dyn_kind
                 (String.concat ", " dynamic_kinds))
        in
        let* dyn_epoch = Dsim.Json.member_float dyn "epoch" ~default:10. in
        let* dyn_period = Dsim.Json.member_int dyn "period" ~default:1 in
        let* dyn_churn = Dsim.Json.member_float dyn "churn" ~default:0.2 in
        let* dyn_seed = Dsim.Json.member_int dyn "seed" ~default:0 in
        if not (dyn_epoch > 0.) then Error "dynamic: need epoch > 0"
        else if dyn_period < 1 then Error "dynamic: need period >= 1"
        else if not (dyn_churn >= 0. && dyn_churn <= 1.) then
          Error "dynamic: need churn in [0, 1]"
        else Ok (Some { dyn_kind; dyn_epoch; dyn_period; dyn_churn; dyn_seed })
  in
  let* domains = Dsim.Json.member_int json "domains" ~default:1 in
  (* [partitions] 0 means auto: one partition per requested domain.  The
     resolution uses the *requested* count (never the machine's core
     count), so the resolved spec — a campaign cache key — is identical
     on every host. *)
  let* partitions = Dsim.Json.member_int json "partitions" ~default:0 in
  let partitions = if partitions = 0 then max domains 1 else partitions in
  let* () = check_ranges ~n ~k ~r ~extra ~fack ~fprog in
  if repeat < 1 then Error "need repeat >= 1"
  else if dynamic <> None && protocol <> `Bmmb then
    Error
      "dynamic: protocol must be \"bmmb\" (FMMB's per-stage engines do not \
       take epoch schedules)"
  else if domains < 1 then Error "need domains >= 1"
  else if partitions < 1 then Error "need partitions >= 0 (0 = auto)"
  else if domains > partitions then
    Error
      (Printf.sprintf
         "domains-exceed-partitions: %d worker domains cannot be mapped \
          onto %d partition(s); raise \"partitions\" or lower \"domains\""
         domains partitions)
  else if partitions > 1 && protocol <> `Bmmb then
    Error "partitions: the partitioned engine runs protocol \"bmmb\" only"
  else if
    partitions > 1 && (match arrivals with Batch -> false | _ -> true)
  then
    Error "partitions: the partitioned engine is batch-arrivals only"
  else if partitions > 1 && scheduler <> "random" then
    Error
      (Printf.sprintf
         "partitions: the partitioned engine fixes the \"random\" \
          scheduler family (got %S)"
         scheduler)
  else if
    partitions > 1
    && (match dynamic with
       | Some d -> d.dyn_kind = "adversary"
       | None -> false)
  then
    Error
      "partitions: the adversary oracle needs global delivered-set \
       knowledge and cannot be partitioned; use kind static, flap, or churn"
  else
    Ok
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

let of_string text =
  let* json = Dsim.Json.parse text in
  of_json json

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

let run_once spec ~seed =
  let* dual =
    build_dual ~topology:spec.topology ~gprime:spec.gprime ~n:spec.n ~r:spec.r
      ~extra:spec.extra ~seed
  in
  let n = Graphs.Dual.n dual in
  let rng = Dsim.Rng.create ~seed:(seed + 13) in
  match spec.protocol with
  | `Bmmb -> (
      let* policy = build_scheduler spec.scheduler in
      let* dyn =
        match spec.dynamic with
        | None -> Ok None
        | Some d ->
            let* dd = build_dyn ~dual d in
            Ok (Some dd)
      in
      (* Epoch windows entered by the end of the run (1 for static). *)
      let epochs_of () = Option.map (fun d -> Dyn.Dual.epoch d + 1) dyn in
      match spec.arrivals with
      | Batch when spec.partitions > 1 ->
          (* Partitioned engine: [dyn] above is discarded in favor of a
             per-partition factory (each partition owns a private
             wrapper; validation already rejected the adversary). *)
          let assignment = Problem.random rng ~n ~k:spec.k in
          let mk_dyn =
            Option.map
              (fun d () ->
                match build_dyn ~dual d with
                | Ok dd -> dd
                | Error e -> failwith e)
              spec.dynamic
          in
          let res =
            Runner.run_bmmb_pdes ~dual ~fack:spec.fack ~fprog:spec.fprog
              ~policy ~assignment ~seed ~partitions:spec.partitions
              ~domains:spec.domains ?mk_dyn ()
          in
          Ok
            {
              seed;
              complete = res.Runner.pd_complete;
              time = res.Runner.pd_time;
              bound = Some res.Runner.pd_upper_bound;
              bcasts = Some res.Runner.pd_bcasts;
              mean_latency = None;
              violations = 0;
              epochs = None;
            }
      | Batch ->
          let assignment = Problem.random rng ~n ~k:spec.k in
          let res =
            Runner.run_bmmb ~dual ~fack:spec.fack ~fprog:spec.fprog ~policy
              ~assignment ~seed ~check_compliance:spec.check ?dyn ()
          in
          Ok
            {
              seed;
              complete = res.Runner.complete;
              time = res.Runner.time;
              bound = Some res.Runner.upper_bound;
              bcasts = Some res.Runner.bcasts;
              mean_latency = None;
              violations = List.length res.Runner.compliance_violations;
              epochs = epochs_of ();
            }
      | Poisson _ | Staggered _ ->
          let arrivals =
            match spec.arrivals with
            | Poisson rate -> Problem.poisson_arrivals rng ~n ~k:spec.k ~rate
            | Staggered gap ->
                Problem.staggered_arrivals ~node:(Dsim.Rng.int rng n)
                  ~k:spec.k ~gap
            | Batch -> assert false
          in
          let res =
            Runner.run_bmmb_online ~dual ~fack:spec.fack ~fprog:spec.fprog
              ~policy ~arrivals ~seed ~check_compliance:spec.check ?dyn ()
          in
          Ok
            {
              seed;
              complete = res.Runner.complete';
              time = res.Runner.makespan;
              bound = None;
              bcasts = Some res.Runner.bcasts';
              mean_latency = Some res.Runner.mean_latency;
              violations = List.length res.Runner.compliance_violations';
              epochs = epochs_of ();
            })
  | `Fmmb -> (
      match spec.arrivals with
      | Batch ->
          let assignment = Problem.random rng ~n ~k:spec.k in
          let res =
            Runner.run_fmmb ~dual ~fprog:spec.fprog ~c:2.
              ~policy:(Amac.Enhanced_mac.minimal_random ())
              ~assignment ~seed ()
          in
          Ok
            {
              seed;
              complete = res.Runner.fmmb.Fmmb.complete;
              time = res.Runner.fmmb.Fmmb.time;
              bound = None;
              bcasts = None;
              mean_latency = None;
              violations = 0;
              epochs = None;
            }
      | _ -> Error "protocol fmmb supports batch arrivals only (use fmmb-online)")
  | `Fmmb_online ->
      let arrivals =
        match spec.arrivals with
        | Batch -> Problem.at_time_zero (Problem.random rng ~n ~k:spec.k)
        | Poisson rate -> Problem.poisson_arrivals rng ~n ~k:spec.k ~rate
        | Staggered gap ->
            Problem.staggered_arrivals ~node:(Dsim.Rng.int rng n) ~k:spec.k
              ~gap
      in
      let tracker = Problem.tracker_timed ~dual arrivals in
      let res =
        Fmmb_online.run ~dual ~fprog:spec.fprog
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
      Ok
        {
          seed;
          complete = res.Fmmb_online.complete;
          time = res.Fmmb_online.time;
          bound = None;
          bcasts = None;
          mean_latency;
          violations = 0;
          epochs = None;
        }

let execute spec =
  let rec go acc i =
    if i >= spec.repeat then Ok (List.rev acc)
    else
      let* run = run_once spec ~seed:(spec.seed + i) in
      go (run :: acc) (i + 1)
  in
  go [] 0

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
