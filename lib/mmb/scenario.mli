(** Config-file-driven experiments: parse a JSON scenario, run it, report.

    Lets downstream users run their own sweeps without writing OCaml:

    {[
      {
        "name": "flaky grid",
        "protocol": "bmmb",
        "topology": "grid", "n": 36,
        "gprime": "r-restricted", "r": 3, "extra": 12,
        "k": 5, "fack": 20, "fprog": 1,
        "scheduler": "adversarial",
        "arrivals": "batch",
        "check": true, "repeat": 3, "seed": 1
      }
    ]}

    Each member is one entry of {!fields}: its type, default, range and
    [mmb_sim] flag.  A flag's value is a member of a one-cell scenario
    object, which {!of_json} reads and checks as it reads a file.
    Protocols: ["bmmb"] (standard model; arrivals [batch]/[poisson]/
    [staggered]), ["fmmb"] (enhanced model, batch), ["fmmb-online"]
    (enhanced model, any arrivals, k-oblivious).  Topologies: [line],
    [ring], [star], [grid], [geometric].  G' regimes: [equal],
    [r-restricted], [arbitrary], [greyzone]. *)

type dyn_spec = {
  dyn_kind : [ `Static | `Flap | `Churn | `Adversary ];
  dyn_epoch : float;  (** stability parameter [T] (epoch length) *)
  dyn_period : int;  (** flap half-period, in epochs *)
  dyn_churn : float;  (** per-epoch per-edge drop probability *)
  dyn_seed : int;  (** churn / adversary seed *)
}
(** The resolved [dynamic] sub-object:

    {[ "dynamic": {"kind": "churn", "epoch": 5, "churn": 0.3, "seed": 7} ]}

    Any [dynamic] requires [protocol = "bmmb"].  Sweeps reach inside with
    dotted params:
    [{"sweep": {"param": "dynamic.epoch", "values": [1, 2, 4]}}]. *)

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
  rate : float;  (** used by [`Poisson] arrivals only *)
  gap : float;  (** used by [`Staggered] arrivals only *)
  check : bool;
  repeat : int;
  domains : int;
      (** worker domains for the partitioned engine (default 1; must not
          exceed [partitions]) *)
  partitions : int;
      (** partition count P — a model parameter ([0] in the JSON means
          auto: one partition per requested domain; resolved here to
          [>= 1]).  [partitions > 1] routes batch BMMB through
          {!Runner.run_bmmb_pdes} and restricts the spec to the
          "random" scheduler, batch arrivals, and non-adversary
          dynamics. *)
  dynamic : dyn_spec option;
}

val default : spec
(** What an empty scenario object [{}] resolves to (name ["scenario"]). *)

type field = {
  key : string;  (** its member, dotted inside ["dynamic"] *)
  kind : [ `Int | `Float | `Bool | `String ];
  default : string;  (** what an absent member means, as help prints it *)
  doc : string;  (** its [mmb_sim] flag's help text *)
  flags : string list;  (** its [mmb_sim] option names, or none *)
}

val fields : field list
(** The scenario fields, one table in the order {!spec_to_json} prints
    them.  The parser, the known-field lists, {!spec_to_json}, the range
    rules and [mmb_sim]'s scenario flags all read it. *)

val put : Dsim.Json.t -> string -> Dsim.Json.t -> Dsim.Json.t
(** [put json key v] sets member [key] (dotted inside ["dynamic"]) of the
    object [json] to [v], in place, or appends it. *)

type run_result = {
  seed : int;
  complete : bool;
  time : float;
  bound : float option;  (** the applicable exact bound (BMMB batch only) *)
  bcasts : int option;
  mean_latency : float option;
      (** online runs: {!Problem.mean_latency}, [None] when no message
          completed *)
  violations : int;  (** compliance violations when [check] *)
  epochs : int option;  (** epoch windows entered (dynamic runs only) *)
}

val build_dual : spec -> seed:int -> Graphs.Dual.t
(** The network [spec] describes, drawn from [seed + 911]. *)

(** {1 Scenario pipeline} *)

val of_json : Dsim.Json.t -> (spec, string) result
(** Read each member through {!fields} and check the spec.  [Error] names
    the first rule broken: an unknown field (listing the vocabulary), a
    mistyped or non-finite value, an unknown name (listing the names), a
    member the spec does not read ([rate] needs [poisson] arrivals, [gap]
    [staggered] ones), a field's range, [0 < fprog <= fack], batch
    arrivals for ["fmmb"], [check] and [dynamic] with BMMB only,
    [domains <= partitions], and the partitioned engine's limits (BMMB,
    batch arrivals, the "random" scheduler, no adversary).  A spec it
    returns runs. *)

val of_string : string -> (spec, string) result

val load_file : string -> (spec list, string) result
(** Read, parse, validate, and {!expand} a scenario file; every error is
    prefixed with the file name. *)

val spec_to_json : spec -> Dsim.Json.t
(** The fully-resolved spec, every default baked in — a complete content
    address for campaign job keying. *)

val expand : Dsim.Json.t -> (spec list, string) result
(** Like {!of_json}, but honoring an optional sweep directive:
    [{"sweep": {"param": "k", "values": [1, 2, 4]}, ...}] yields one spec
    per value with the parameter overridden (params: any numeric field
    of {!fields}, e.g. "n", "fack", "dynamic.epoch").  Without a sweep, a
    singleton list. *)

val expand_string : string -> (spec list, string) result

(** {1 Execution} *)

type engine =
  | Serial of Runner.bmmb_result
      (** BMMB, [partitions = 1], any arrivals: {!Runner.run_bmmb} for
          batch arrivals, {!Runner.run_bmmb_online} (its [upper_bound]
          is [infinity]) for Poisson or staggered ones *)
  | Partitioned of Runner.pdes_result  (** BMMB, batch, [partitions > 1] *)
  | Fmmb of Runner.fmmb_result
      (** FMMB: {!Runner.run_fmmb} for ["fmmb"], {!Runner.run_fmmb_online}
          (its [shape_bound] is [infinity]) for ["fmmb-online"] *)

type execution = {
  dual : Graphs.Dual.t;
  dyn : Dyn.Dual.t option;  (** the serial engines' dynamic wrapper *)
  engine : engine;
}

val run :
  ?instrument:(Graphs.Dual.t -> Dyn.Dual.t option -> Instrument.t) ->
  ?setup:(Dsim.Sim.t -> unit) ->
  spec ->
  seed:int ->
  execution
(** The one execution [spec] describes at [seed], which every [mmb_sim]
    subcommand and scenario cell runs through: the network from
    [seed + 911], the assignment or arrivals from [seed + 13], then the
    engine [spec] selects (fmmb-online's rounds draw from [seed + 31]).
    [instrument] gets the built network and dynamic wrapper ([None] on
    the partitioned engine, which builds one per partition) before the
    run, and every engine but fmmb-online's takes what it returns: the
    streaming run records no lifecycle, and its [Rounds] backend has no
    engine to account for.  [setup] reaches the serial engine (batch or online
    arrivals), whose one event heap it can schedule into.  [spec.check]
    audits the run on every BMMB engine, the partitioned one included.
    Raises [Invalid_argument] when [spec] breaks a range, or a rule
    relating fields, that {!of_json} checks. *)

val execute :
  ?instrument:(Graphs.Dual.t -> Dyn.Dual.t option -> Instrument.t) ->
  spec ->
  run_result list
(** {!run} once per repeat, seeds [spec.seed, spec.seed+1, ...], each
    reduced to its report row. *)

val report : spec -> run_result list -> string
(** Human-readable table. *)

val result_json : spec -> run_result list -> Dsim.Json.t
(** Machine-readable results (one object per run). *)
