(** The parsetree driver.

    Files ending in [.mli] are parsed as interfaces and walked through
    the rule iterator's [signature] entry; everything else is parsed as
    an implementation.  Unparseable input yields a single [E0] finding.

    Escape-hatch order: a suppression comment is consulted before the
    allowlist, and the first hatch that covers a finding takes the hit
    (relevant only to stale accounting). *)

val read_file : string -> string

val owns : string list -> string -> bool
(** [owns ids id]: does [id] carry the family letter of one of [ids]?
    Rule ids are a family letter plus a number, so a hatch naming an
    R-id with no rule behind it (a typo, a deleted rule) is still the
    race family's to report. *)

val run_source :
  rules:Rule.t list -> ?allow:Allow.t -> file:string -> string -> Finding.t list
(** Analyze source text posed at path [file] (which drives per-rule path
    filters — tests pose fixtures "as if" they lived under [lib/]).
    Findings are sorted by (file, line, col, rule).  No stale findings. *)

val run_files :
  rules:Rule.t list ->
  ?allow:Allow.t ->
  ?stale:bool ->
  string list ->
  Finding.t list
(** Analyze many files.  With [stale] (default off), suppression-comment
    ids and allowlist entries owned by [rules]' family that suppressed
    nothing across the whole run are themselves reported ([S1]/[S2]). *)
