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

    Protocols: ["bmmb"] (standard model; arrivals [batch]/[poisson]/
    [staggered]), ["fmmb"] (enhanced model, batch), ["fmmb-online"]
    (enhanced model, any arrivals, k-oblivious).  Topologies: [line],
    [ring], [star], [grid], [geometric].  G' regimes: [equal],
    [r-restricted], [arbitrary], [greyzone]. *)

type arrivals =
  | Batch
  | Poisson of float  (** rate *)
  | Staggered of float  (** gap *)

type dyn_spec = {
  dyn_kind : string;  (** ["static" | "flap" | "churn" | "adversary"] *)
  dyn_epoch : float;  (** stability parameter [T] (epoch length) *)
  dyn_period : int;  (** flap half-period, in epochs *)
  dyn_churn : float;  (** per-epoch per-edge drop probability *)
  dyn_seed : int;  (** churn / adversary seed *)
}
(** The resolved [dynamic] sub-object:

    {[ "dynamic": {"kind": "churn", "epoch": 5, "churn": 0.3, "seed": 7} ]}

    Unknown or ill-typed fields are rejected naming the field and the
    vocabulary ([kind, epoch, period, churn, seed]); [kind] must be one
    of [static], [flap], [churn], [adversary]; any [dynamic] requires
    [protocol = "bmmb"].  Sweeps reach inside with dotted params:
    [{"sweep": {"param": "dynamic.epoch", "values": [1, 2, 4]}}]. *)

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
}

val default : spec
(** What an empty scenario object [{}] resolves to (name ["scenario"]);
    [mmb_sim]'s flags default to the same values. *)

type run_result = {
  seed : int;
  complete : bool;
  time : float;
  bound : float option;  (** the applicable exact bound (BMMB batch only) *)
  bcasts : int option;
  mean_latency : float option;  (** online runs *)
  violations : int;  (** compliance violations when [check] *)
  epochs : int option;  (** epoch windows entered (dynamic runs only) *)
}

val build_dual : spec -> seed:int -> Graphs.Dual.t
(** The network [spec] describes, drawn from [seed + 911].  Check [spec]
    with {!check_spec} first: an unknown name raises [Invalid_argument]. *)

(** {1 Scenario pipeline} *)

val validate : Dsim.Json.t -> (unit, string) result
(** Reject unknown fields (typos silently swallowed by defaults otherwise)
    with a message listing the full field vocabulary.  [of_json] and
    [expand] call this for you. *)

val check_spec : spec -> (unit, string) result
(** Every rule a resolved spec must satisfy: the [dynamic] kind and its
    ranges (epoch > 0, period >= 1, churn in [[0, 1]]); [n >= 1],
    [k >= 0], [0 < fprog <= fack], [r >= 1] and [extra >= 0]; the
    topology (unless [gprime] is ["greyzone"], which ignores it), the G'
    regime and, for BMMB, the scheduler name; a Poisson [rate > 0], a
    staggered [gap >= 0], and batch arrivals for ["fmmb"];
    [repeat >= 1], dynamic only with BMMB, [1 <= domains <= partitions],
    and the partitioned engine's limits (BMMB, batch arrivals, the
    "random" scheduler, no adversary).  [Error] names the first one
    violated.  {!of_json} ends with it, and [mmb_sim]'s subcommands check
    the spec their flags describe with it.  A spec that passes runs. *)

val of_json : Dsim.Json.t -> (spec, string) result
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
    per value with the parameter overridden (params: any numeric scenario
    field — "n", "k", "r", "extra", "fack", "fprog", "seed", "rate",
    "gap").  Without a sweep, a singleton list. *)

val expand_string : string -> (spec list, string) result

(** {1 Execution} *)

type engine =
  | Serial of Runner.bmmb_result  (** BMMB, batch, [partitions = 1] *)
  | Partitioned of Runner.pdes_result  (** BMMB, batch, [partitions > 1] *)
  | Online of Runner.online_result  (** BMMB, Poisson or staggered *)
  | Fmmb of Runner.fmmb_result
  | Fmmb_online of {
      result : Fmmb_online.result;
      mean_latency : float option;  (** over completed messages *)
    }

type execution = {
  dual : Graphs.Dual.t;
  dyn : Dyn.Dual.t option;  (** the serial engines' dynamic wrapper *)
  engine : engine;
}

val run :
  ?instrument:(Graphs.Dual.t -> Dyn.Dual.t option -> Instrument.t) ->
  ?setup:(Dsim.Sim.t -> unit) ->
  ?trace_out:string ->
  spec ->
  seed:int ->
  execution
(** The one execution [spec] describes at [seed], which every [mmb_sim]
    subcommand and scenario cell runs through: the network from
    [seed + 911], the assignment or arrivals from [seed + 13], then the
    engine [spec] selects.  [instrument] gets the built network and
    dynamic wrapper before the run; the serial, online and FMMB engines
    take what it returns.  [setup] reaches the serial and online
    engines, [trace_out] is the partitioned engine's streamed JSONL.
    Raises [Invalid_argument] when {!check_spec} rejects [spec]. *)

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
