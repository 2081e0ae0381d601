(** Finding output, text or JSON. *)

val schema : string
(** The shared envelope identifier every analyzer emits: ["mmb-analysis/1"]. *)

val version : int
(** Envelope version; bumped only on incompatible field changes. *)

val to_json :
  ?skips:(string * string) list ->
  tool:string ->
  files:int ->
  Finding.t list ->
  string
(** One compact object in the shared [mmb-analysis/1] envelope:
    [{"schema":"mmb-analysis/1","tool":...,"version":1,"files":N,
      "skips":[{"file":...,"reason":...}],
      "findings":[{"rule":...,"file":...,"line":...,"col":...,"msg":...}]}].
    All four rule families (lint, check, race, hot) emit exactly this
    shape; [skips] carries files the family could not analyze (the hot
    family's missing-[.cmt] diagnostics) and is empty for the
    parsetree families. *)

val exit_code : Finding.t list -> int
(** [0] clean, [1] findings, [2] if any [E*] finding (unparseable file). *)

val print :
  ?skips:(string * string) list ->
  json:bool ->
  tool:string ->
  files:int ->
  Finding.t list ->
  unit
(** Text mode prints one {!Finding.to_string} line per finding plus a
    summary ([stdout] findings, [stderr] summary when nonzero), with
    skips as [stderr] diagnostics; JSON mode prints the single
    {!to_json} object on [stdout]. *)
