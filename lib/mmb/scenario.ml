type dyn_spec = {
  dyn_kind : [ `Static | `Flap | `Churn | `Adversary ];
  dyn_epoch : float; (* stability parameter T (epoch length) *)
  dyn_period : int; (* flap *)
  dyn_churn : float; (* churn drop rate *)
  dyn_seed : int; (* churn / adversary *)
}

type spec = {
  name : string;
  protocol : [ `Bmmb | `Fmmb | `Fmmb_online ];
  topology : [ `Line | `Ring | `Star | `Grid | `Geometric ];
  n : int;
  gprime : [ `Equal | `R_restricted | `Arbitrary | `Greyzone ];
  r : int;
  extra : int;
  k : int;
  fack : float;
  fprog : float;
  seed : int;
  scheduler : [ `Eager | `Random | `Adversarial | `Bursty ];
  arrivals : [ `Batch | `Poisson | `Staggered ];
  rate : float;
  gap : float;
  check : bool;
  repeat : int;
  domains : int;  (* worker domains for the partitioned engine *)
  partitions : int;  (* partition count P (resolved: >= 1) *)
  dynamic : dyn_spec option;
}

type field = {
  key : string;
  kind : [ `Int | `Float | `Bool | `String ];
  default : string;
  doc : string;
  flags : string list;
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

let build_dual { topology; gprime; n; r; extra; _ } ~seed =
  let rng = Dsim.Rng.create ~seed:(seed + 911) in
  match gprime with
  | `Greyzone ->
      let side = sqrt (float_of_int n /. 3.) in
      Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side ~c:2.
        ~p:0.4 ~max_tries:2000
  | (`Equal | `R_restricted | `Arbitrary) as regime -> (
      let g =
        match topology with
        | `Line -> Graphs.Gen.line n
        | `Ring -> Graphs.Gen.ring (max 3 n)
        | `Star -> Graphs.Gen.star n
        | `Grid ->
            let side = int_of_float (ceil (sqrt (float_of_int n))) in
            Graphs.Gen.grid ~rows:side ~cols:side
        | `Geometric ->
            let side = sqrt (float_of_int n /. 3.) in
            fst
              (Graphs.Gen.random_connected_geometric rng ~n ~width:side
                 ~height:side ~radius:1. ~max_tries:2000)
      in
      match regime with
      | `Equal -> Graphs.Dual.of_equal g
      | `R_restricted -> Graphs.Dual.r_restricted_random rng ~g ~r ~extra
      | `Arbitrary -> Graphs.Dual.arbitrary_random rng ~g ~extra)

let build_scheduler = function
  | `Eager -> Amac.Schedulers.eager ()
  | `Random -> Amac.Schedulers.random_compliant ()
  | `Adversarial -> Amac.Schedulers.adversarial ()
  | `Bursty -> Amac.Schedulers.bursty ()

(* The versioned dual a resolved [dynamic] sub-object describes, over the
   base (union) dual the static builders produced. *)
let build_dyn ~dual dspec =
  match dspec.dyn_kind with
  | `Static -> Dyn.Dual.of_static dual
  | `Flap ->
      Dyn.Dual.of_schedule
        (Dyn.Schedule.flap ~base:dual ~epoch_len:dspec.dyn_epoch
           ~period:dspec.dyn_period)
  | `Churn ->
      Dyn.Dual.of_schedule
        (Dyn.Schedule.churn ~base:dual ~epoch_len:dspec.dyn_epoch
           ~rate:dspec.dyn_churn ~seed:dspec.dyn_seed)
  | `Adversary ->
      Dyn.Dual.of_schedule
        (Dyn.Schedule.adversary ~base:dual ~epoch_len:dspec.dyn_epoch
           ~seed:dspec.dyn_seed)

(* --- The field table ------------------------------------------------------ *)

let ( let* ) = Result.bind

(* What an absent member means: the one place a default is written.
   [partitions] 0 is auto, resolved by [of_json]. *)
let defaults =
  {
    name = "scenario"; protocol = `Bmmb; topology = `Line; n = 30;
    gprime = `Equal; r = 2; extra = 10; k = 4; fack = 20.; fprog = 1.;
    seed = 1; scheduler = `Random; arrivals = `Batch; rate = 0.01;
    gap = 10.; check = false; repeat = 1; domains = 1; partitions = 0;
    dynamic = None;
  }

let default_dyn =
  {
    dyn_kind = `Static; dyn_epoch = 10.; dyn_period = 1; dyn_churn = 0.2;
    dyn_seed = 0;
  }

let dyn s = Option.value s.dynamic ~default:default_dyn

(* How a member is read into a spec's value and printed back.  A [Name]
   carries what it names and its vocabulary. *)
type _ ty =
  | Int : int ty
  | Float : float ty
  | Bool : bool ty
  | Text : string ty
  | Name : string * (string * 'a) list -> 'a ty

(* One scenario field: its member (dotted inside "dynamic"), how a spec
   holds it, the range its value must lie in, what else the spec must say
   for the field to mean anything (a member that means nothing is refused,
   and not printed), and its mmb_sim flag's doc and option names. *)
type entry =
  | E : {
      key : string;
      ty : 'a ty;
      get : spec -> 'a;
      set : spec -> 'a -> spec;
      range : ('a -> bool) * string;
      needs : (spec -> bool) * string;
      doc : string;
      flags : string list;
    }
      -> entry

let field ?(range = ((fun _ -> true), "")) ?(needs = ((fun _ -> true), ""))
    ?(doc = "") ?(flags = []) key ty get set =
  E { key; ty; get; set; range; needs; doc; flags }

let dyn_field ?range ?doc ?flags key ty get set =
  field ?range ?doc ?flags ("dynamic." ^ key) ty
    (fun s -> get (dyn s))
    (fun s x -> { s with dynamic = Some (set (dyn s) x) })
    ~needs:((fun s -> s.dynamic <> None), {|"dynamic"|})

let at_least lo what = ((fun x -> x >= lo), Printf.sprintf "%s >= %d" what lo)

let table =
  [
    field "name" Text (fun s -> s.name) (fun s name -> { s with name });
    field "protocol"
      (Name
         ( "protocol",
           [ ("bmmb", `Bmmb); ("fmmb", `Fmmb); ("fmmb-online", `Fmmb_online) ]
         ))
      (fun s -> s.protocol)
      (fun s protocol -> { s with protocol })
      ~flags:[ "protocol"; "p" ] ~doc:"Protocol.";
    field "topology"
      (Name
         ( "topology",
           [ ("line", `Line); ("ring", `Ring); ("star", `Star);
             ("grid", `Grid); ("geometric", `Geometric) ] ))
      (fun s -> s.topology)
      (fun s topology -> { s with topology })
      ~flags:[ "topology"; "t" ] ~doc:"Reliable graph G.";
    field "n" Int (fun s -> s.n) (fun s n -> { s with n })
      ~range:(at_least 1 "n") ~flags:[ "nodes"; "n" ] ~doc:"Number of nodes.";
    field "gprime"
      (Name
         ( "G' regime",
           [ ("equal", `Equal); ("r-restricted", `R_restricted);
             ("arbitrary", `Arbitrary); ("greyzone", `Greyzone) ] ))
      (fun s -> s.gprime)
      (fun s gprime -> { s with gprime })
      ~flags:[ "gprime"; "g" ]
      ~doc:"Unreliable graph G' regime (greyzone draws its own geometric G).";
    field "r" Int (fun s -> s.r) (fun s r -> { s with r })
      ~range:(at_least 1 "r") ~flags:[ "radius"; "r" ]
      ~doc:"Restriction radius for the r-restricted G' regime.";
    field "extra" Int (fun s -> s.extra) (fun s extra -> { s with extra })
      ~range:(at_least 0 "extra") ~flags:[ "extra" ]
      ~doc:"Number of extra unreliable edges.";
    field "k" Int (fun s -> s.k) (fun s k -> { s with k })
      ~range:(at_least 1 "k") ~flags:[ "messages"; "k" ]
      ~doc:"Number of MMB messages.";
    field "fack" Float (fun s -> s.fack) (fun s fack -> { s with fack })
      ~flags:[ "fack" ] ~doc:"Acknowledgment bound Fack.";
    field "fprog" Float (fun s -> s.fprog) (fun s fprog -> { s with fprog })
      ~flags:[ "fprog" ] ~doc:"Progress bound Fprog.";
    field "seed" Int (fun s -> s.seed) (fun s seed -> { s with seed })
      ~flags:[ "seed"; "s" ]
      ~doc:"Random seed (runs are reproducible from it).";
    field "scheduler"
      (Name
         ( "scheduler",
           [ ("eager", `Eager); ("random", `Random);
             ("adversarial", `Adversarial); ("bursty", `Bursty) ] ))
      (fun s -> s.scheduler)
      (fun s scheduler -> { s with scheduler })
      ~flags:[ "scheduler" ] ~doc:"Message scheduler (bmmb).";
    field "arrivals"
      (Name
         ( "arrivals",
           [ ("batch", `Batch); ("poisson", `Poisson);
             ("staggered", `Staggered) ] ))
      (fun s -> s.arrivals)
      (fun s arrivals -> { s with arrivals });
    field "rate" Float (fun s -> s.rate) (fun s rate -> { s with rate })
      ~range:((fun x -> x > 0.), "rate > 0")
      ~needs:((fun s -> s.arrivals = `Poisson), {|"arrivals": "poisson"|})
      ~flags:[ "rate" ] ~doc:"Poisson arrival rate (messages per time unit).";
    field "gap" Float (fun s -> s.gap) (fun s gap -> { s with gap })
      ~range:((fun x -> x >= 0.), "gap >= 0")
      ~needs:((fun s -> s.arrivals = `Staggered), {|"arrivals": "staggered"|});
    field "check" Bool (fun s -> s.check) (fun s check -> { s with check })
      ~flags:[ "check" ]
      ~doc:"Audit the execution against the five MAC-layer axioms.";
    field "repeat" Int (fun s -> s.repeat) (fun s repeat -> { s with repeat })
      ~range:(at_least 1 "repeat");
    field "domains" Int (fun s -> s.domains)
      (fun s domains -> { s with domains })
      ~range:(at_least 1 "domains") ~flags:[ "domains" ]
      ~doc:
        "Worker domains for the partitioned engine (bmmb only).  $(b,0) \
         means auto: resolve to the machine's recommended domain count, \
         like $(b,campaign --jobs 0).  Must not exceed the partition count.";
    field "partitions" Int (fun s -> s.partitions)
      (fun s partitions -> { s with partitions })
      ~range:((fun p -> p >= 1), "partitions >= 0 (0 = auto)")
      ~flags:[ "partitions" ]
      ~doc:
        "Partition count P for the partitioned engine.  P is a model \
         parameter: it fixes instance ids, RNG streams and delivery times, \
         while --domains only maps partitions onto workers — traces are \
         byte-identical for any domain count.  $(b,0) means auto (one \
         partition per worker domain); $(b,1) keeps the exact serial engine.";
    dyn_field "kind"
      (Name
         ( "dynamic kind",
           [ ("static", `Static); ("flap", `Flap); ("churn", `Churn);
             ("adversary", `Adversary) ] ))
      (fun d -> d.dyn_kind)
      (fun d dyn_kind -> { d with dyn_kind })
      ~flags:[ "dynamic" ]
      ~doc:
        "Time-varying unreliable layer (bmmb only; the listed G' becomes the \
         union over all epochs).";
    dyn_field "epoch" Float (fun d -> d.dyn_epoch)
      (fun d dyn_epoch -> { d with dyn_epoch })
      ~range:((fun t -> t > 0.), "epoch > 0") ~flags:[ "epoch" ]
      ~doc:"Epoch length (stability parameter T) for --dynamic.";
    dyn_field "period" Int (fun d -> d.dyn_period)
      (fun d dyn_period -> { d with dyn_period })
      ~range:(at_least 1 "period") ~flags:[ "dyn-period" ]
      ~doc:"Half-period in epochs for --dynamic flap.";
    dyn_field "churn" Float (fun d -> d.dyn_churn)
      (fun d dyn_churn -> { d with dyn_churn })
      ~range:((fun p -> p >= 0. && p <= 1.), "churn in [0, 1]")
      ~flags:[ "churn-rate" ]
      ~doc:"Per-epoch per-edge drop probability for --dynamic churn.";
    dyn_field "seed" Int (fun d -> d.dyn_seed)
      (fun d dyn_seed -> { d with dyn_seed })
      ~flags:[ "dyn-seed" ]
      ~doc:"Seed for the churn schedule (independent of --seed).";
  ]

let read : type a. string -> a ty -> Dsim.Json.t -> (a, string) result =
 fun key ty v ->
  let typed r = Result.map_error (Printf.sprintf "field %S: %s" key) r in
  match ty with
  | Int -> typed (Dsim.Json.to_int v)
  | Float ->
      typed
        (let* x = Dsim.Json.to_float v in
         if Float.is_finite x then Ok x else Error "expected a finite number")
  | Bool -> typed (Dsim.Json.to_bool v)
  | Text -> typed (Dsim.Json.to_str v)
  | Name (what, names) -> (
      let* name = typed (Dsim.Json.to_str v) in
      match List.assoc_opt name names with
      | Some x -> Ok x
      | None ->
          Error
            (Printf.sprintf "unknown %s %S; known: %s" what name
               (String.concat ", " (List.map fst names))))

let print : type a. a ty -> a -> Dsim.Json.t =
 fun ty x ->
  match ty with
  | Int -> Dsim.Json.Number (float_of_int x)
  | Float -> Dsim.Json.Number x
  | Bool -> Dsim.Json.Bool x
  | Text -> Dsim.Json.String x
  | Name (_, names) ->
      Dsim.Json.String (fst (List.find (fun (_, y) -> y = x) names))

(* "dynamic.epoch" is member "epoch" of member "dynamic". *)
let split key =
  match String.index_opt key '.' with
  | None -> (key, None)
  | Some i ->
      ( String.sub key 0 i,
        Some (String.sub key (i + 1) (String.length key - i - 1)) )

let lookup json key =
  match split key with
  | outer, None -> Dsim.Json.member_opt json outer
  | outer, Some inner ->
      Option.bind (Dsim.Json.member_opt json outer) (fun o ->
          Dsim.Json.member_opt o inner)

let rec put json key value =
  match (json, split key) with
  | Dsim.Json.Obj members, (key, None) ->
      if List.mem_assoc key members then
        Dsim.Json.Obj
          (List.map (fun (k, v) -> (k, if k = key then value else v)) members)
      else Dsim.Json.Obj (members @ [ (key, value) ])
  | Dsim.Json.Obj _, (outer, Some inner) ->
      let sub =
        match Dsim.Json.member_opt json outer with
        | Some (Dsim.Json.Obj _ as o) -> o
        | _ -> Dsim.Json.Obj []
      in
      put json outer (put sub inner value)
  | other, _ -> other

let fields =
  List.map
    (fun (E f) ->
      let kind, doc =
        match f.ty with
        | Int -> (`Int, f.doc)
        | Float -> (`Float, f.doc)
        | Bool -> (`Bool, f.doc)
        | Text -> (`String, f.doc)
        | Name (_, names) ->
            ( `String,
              Printf.sprintf "%s One of %s." f.doc
                (String.concat ", " (List.map fst names)) )
      in
      let default =
        match print f.ty (f.get defaults) with
        | Dsim.Json.String s -> s
        | Dsim.Json.Number x -> Printf.sprintf "%g" x
        | v -> Dsim.Json.to_string v
      in
      { key = f.key; kind; default; doc; flags = f.flags })
    table

(* The fully-resolved spec as JSON, in table order: every default baked
   in, so it is a complete content address for campaign job keying (two
   scenario files that elaborate to the same spec share cache entries). *)
let spec_to_json s =
  List.fold_left
    (fun json (E f) ->
      if fst f.needs s then put json f.key (print f.ty (f.get s)) else json)
    (Dsim.Json.Obj []) table

(* --- Parsing -------------------------------------------------------------- *)

(* Every member a scenario object may carry, in table order.  Anything
   else is almost certainly a typo silently replaced by a default, so we
   reject it with the full vocabulary instead of guessing. *)
let known_fields =
  List.fold_right
    (fun (E f) known ->
      let outer, _ = split f.key in
      if List.mem outer known then known else outer :: known)
    table [ "sweep" ]

let dynamic_fields = List.filter_map (fun (E f) -> snd (split f.key)) table

let validate json =
  let unknown ~prefix known members =
    match List.find_opt (fun (k, _) -> not (List.mem k known)) members with
    | Some (k, _) ->
        Error
          (Printf.sprintf "%sunknown field %S; known fields: %s" prefix k
             (String.concat ", " known))
    | None -> Ok ()
  in
  let sub key check =
    match Dsim.Json.member_opt json key with
    | None | Some Dsim.Json.Null -> Ok ()
    | Some (Dsim.Json.Obj members) -> check members
    | Some _ -> Error (Printf.sprintf "field %S must be an object" key)
  in
  match json with
  | Dsim.Json.Obj members ->
      let* () = unknown ~prefix:"" known_fields members in
      let* () = sub "dynamic" (unknown ~prefix:"dynamic: " dynamic_fields) in
      sub "sweep" (fun members ->
          match
            List.find_opt (fun (k, _) -> k <> "param" && k <> "values") members
          with
          | Some (k, _) ->
              Error
                (Printf.sprintf
                   "sweep: unknown field %S (a sweep object takes \"param\" \
                    and \"values\")"
                   k)
          | None -> Ok ())
  | _ -> Error "a scenario must be a JSON object"

(* Every rule a resolved spec must satisfy: the table's ranges, then the
   rules that relate fields.  A spec that passes runs. *)
let check_spec s =
  let* () =
    List.fold_left
      (fun ok (E f) ->
        let* () = ok in
        let in_range, rule = f.range in
        if fst f.needs s && not (in_range (f.get s)) then
          Error
            (match split f.key with
            | _, None -> "need " ^ rule
            | outer, Some _ -> Printf.sprintf "%s: need %s" outer rule)
        else Ok ())
      (Ok ()) table
  in
  let partitioned = s.partitions > 1 in
  if not (s.fprog > 0. && s.fprog <= s.fack) then
    Error "need 0 < fprog <= fack"
  else if s.arrivals <> `Batch && s.protocol = `Fmmb then
    Error "protocol fmmb supports batch arrivals only (use fmmb-online)"
  else if s.check && s.protocol <> `Bmmb then
    Error "check: only protocol \"bmmb\" is audited"
  else if s.dynamic <> None && s.protocol <> `Bmmb then
    Error
      "dynamic: protocol must be \"bmmb\" (FMMB's round engine takes no \
       epoch schedule)"
  else if s.domains > s.partitions then
    Error
      (Printf.sprintf
         "domains-exceed-partitions: %d worker domains cannot be mapped \
          onto %d partition(s); raise \"partitions\" or lower \"domains\""
         s.domains s.partitions)
  else if partitioned && s.protocol <> `Bmmb then
    Error "partitions: the partitioned engine runs protocol \"bmmb\" only"
  else if partitioned && s.arrivals <> `Batch then
    Error "partitions: the partitioned engine is batch-arrivals only"
  else if partitioned && s.scheduler <> `Random then
    Error
      (Printf.sprintf
         "partitions: the partitioned engine fixes the \"random\" \
          scheduler family (got %s)"
         (Dsim.Json.to_string
            (Option.get (lookup (spec_to_json s) "scheduler"))))
  else if partitioned && (dyn s).dyn_kind = `Adversary then
    Error
      "partitions: the adversary oracle needs global delivered-set \
       knowledge and cannot be partitioned; use kind static, flap, or churn"
  else Ok ()

let of_json json =
  let* () = validate json in
  let read_member spec (E f) =
    let* s = spec in
    match lookup json f.key with
    | None -> Ok s
    | Some v ->
        let* x = read f.key f.ty v in
        let holds, what = f.needs in
        if holds s then Ok (f.set s x)
        else Error (Printf.sprintf "field %S needs %s" f.key what)
  in
  let dynamic =
    match Dsim.Json.member_opt json "dynamic" with
    | Some (Dsim.Json.Obj _) -> Some default_dyn
    | _ -> None
  in
  let* s = List.fold_left read_member (Ok { defaults with dynamic }) table in
  (* [partitions] 0 means auto: one partition per requested domain.  The
     resolution uses the *requested* count (never the machine's core
     count), so the resolved spec — a campaign cache key — is identical
     on every host. *)
  let s =
    if s.partitions = 0 then { s with partitions = max s.domains 1 } else s
  in
  let* () = check_spec s in
  Ok s

let of_string text =
  let* json = Dsim.Json.parse text in
  of_json json

let default = Result.get_ok (of_json (Dsim.Json.Obj []))

let expand json =
  let* () = validate json in
  match Dsim.Json.member_opt json "sweep" with
  | None ->
      let* spec = of_json json in
      Ok [ spec ]
  | Some sweep ->
      let* param = Dsim.Json.member_str sweep "param" ~default:"" in
      let textual f = f.key = param && (f.kind = `Bool || f.kind = `String) in
      if param = "" then Error "sweep: missing \"param\""
      else if List.exists textual fields then
        Error (Printf.sprintf "sweep: %S is not a numeric field" param)
      else
        let* values =
          match Dsim.Json.member sweep "values" with
          | Ok v -> Dsim.Json.to_list v
          | Error e -> Error e
        in
        if values = [] then Error "sweep: empty \"values\""
        else begin
          let base = put json "sweep" Dsim.Json.Null in
          let name =
            match Dsim.Json.member_opt json "name" with
            | Some (Dsim.Json.String s) -> s
            | _ -> "scenario"
          in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | (Dsim.Json.Number _ as x) :: rest ->
                let* spec =
                  of_json
                    (put (put base param x) "name"
                       (Dsim.Json.String
                          (Printf.sprintf "%s [%s=%s]" name param
                             (Dsim.Json.to_string x))))
                in
                go (spec :: acc) rest
            | _ -> Error "sweep: values must be numbers"
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

(* --- Execution ------------------------------------------------------------ *)

type engine =
  | Serial of Runner.bmmb_result
  | Partitioned of Runner.pdes_result
  | Fmmb of Runner.fmmb_result

type execution = {
  dual : Graphs.Dual.t;
  dyn : Dyn.Dual.t option;
  engine : engine;
}

(* The one place a spec becomes a run: every subcommand and every
   scenario cell goes through here, so the same settings give the same
   execution.  Seeds: network [seed + 911], assignment or arrivals
   [seed + 13], engine [seed], FMMB-online rounds [seed + 31]. *)
let run ?(instrument = fun _ _ -> Instrument.none) ?setup spec ~seed =
  (match check_spec spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Scenario.run: " ^ e));
  let dual = build_dual spec ~seed in
  let n = Graphs.Dual.n dual in
  let k = spec.k and fack = spec.fack and fprog = spec.fprog in
  let rng = Dsim.Rng.create ~seed:(seed + 13) in
  let arrivals () =
    match spec.arrivals with
    | `Batch -> Problem.at_time_zero (Problem.random rng ~n ~k)
    | `Poisson -> Problem.poisson_arrivals rng ~n ~k ~rate:spec.rate
    | `Staggered ->
        Problem.staggered_arrivals ~node:(Dsim.Rng.int rng n) ~k ~gap:spec.gap
  in
  let partitioned = spec.partitions > 1 in
  (* The partitioned engine builds one private wrapper per partition. *)
  let dyn =
    if partitioned then None else Option.map (build_dyn ~dual) spec.dynamic
  in
  let instrument = instrument dual dyn in
  let engine =
    match (spec.protocol, spec.arrivals) with
    | `Bmmb, `Batch when partitioned ->
        Partitioned
          (Runner.run_bmmb_pdes ~dual ~fack ~fprog
             ~policy:(build_scheduler spec.scheduler)
             ~assignment:(Problem.random rng ~n ~k) ~seed
             ~partitions:spec.partitions ~domains:spec.domains
             ?mk_dyn:
               (Option.map (fun d () -> build_dyn ~dual d) spec.dynamic)
             ~check_compliance:spec.check ~instrument ())
    | `Bmmb, `Batch ->
        Serial
          (Runner.run_bmmb ~dual ~fack ~fprog
             ~policy:(build_scheduler spec.scheduler)
             ~assignment:(Problem.random rng ~n ~k) ~seed
             ~check_compliance:spec.check ?dyn ~instrument ?setup ())
    | `Bmmb, _ ->
        Serial
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
        Fmmb
          (Runner.run_fmmb_online ~dual ~fprog ~c:2.
             ~policy:(Amac.Enhanced_mac.minimal_random ())
             ~arrivals:(arrivals ()) ~seed:(seed + 31) ~max_rounds:1_000_000)
  in
  { dual; dyn; engine }

(* One report row per execution: a bound for batch BMMB, a mean latency
   for online arrivals. *)
let row spec ~seed { dyn; engine; _ } =
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
  | Serial r -> (
      match spec.arrivals with
      | `Batch ->
          make r.complete r.time ~bound:r.upper_bound ~bcasts:r.bcasts
            ~violations:r.compliance_violations
      | `Poisson | `Staggered ->
          make r.complete r.time ~bcasts:r.bcasts
            ?mean_latency:(Problem.mean_latency r.latencies)
            ~violations:r.compliance_violations)
  | Partitioned r ->
      make r.pd_complete r.pd_time ~bound:r.pd_upper_bound ~bcasts:r.pd_bcasts
        ~violations:r.pd_compliance_violations
  | Fmmb { fmmb; latencies'; _ } -> (
      match spec.protocol with
      | `Fmmb_online ->
          make fmmb.complete fmmb.time
            ?mean_latency:(Problem.mean_latency latencies')
      | `Bmmb | `Fmmb -> make fmmb.complete fmmb.time)

let execute ?instrument spec =
  List.init spec.repeat (fun i ->
      let seed = spec.seed + i in
      row spec ~seed (run ?instrument spec ~seed))

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
