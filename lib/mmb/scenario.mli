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

(** {1 Building blocks} (also used by the CLI) *)

val build_dual :
  topology:string ->
  gprime:string ->
  n:int ->
  r:int ->
  extra:int ->
  seed:int ->
  (Graphs.Dual.t, string) result

val build_scheduler : string -> (int Amac.Mac_intf.policy, string) result

val build_dyn : dual:Graphs.Dual.t -> dyn_spec -> (Dyn.Dual.t, string) result
(** The versioned dual a resolved [dynamic] sub-object describes; [dual]
    is the base (union) dual from {!build_dual}. *)

(** {1 Scenario pipeline} *)

val validate : Dsim.Json.t -> (unit, string) result
(** Reject unknown fields (typos silently swallowed by defaults otherwise)
    with a message listing the full field vocabulary.  [of_json] and
    [expand] call this for you. *)

val check_ranges :
  n:int ->
  k:int ->
  r:int ->
  extra:int ->
  fack:float ->
  fprog:float ->
  (unit, string) result
(** The numeric range checks {!of_json} applies to the fields the CLI
    also takes as flags: [n >= 1], [k >= 0], [0 < fprog <= fack],
    [r >= 1] and [extra >= 0].  [Error] names the first one violated.
    Call it before {!build_dual}, which raises on values out of range. *)

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

val execute : spec -> (run_result list, string) result
(** One run per repeat, seeds [spec.seed, spec.seed+1, ...]. *)

val report : spec -> run_result list -> string
(** Human-readable table. *)

val result_json : spec -> run_result list -> Dsim.Json.t
(** Machine-readable results (one object per run). *)
