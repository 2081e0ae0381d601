(** The analyzer command line, [mmb_analyze FAMILY [OPTION]... PATH...].

    Each rule family (lint, check, race, hot) is one {!family} value;
    all four take the same [--allow]/[--json]/[--rules]/[--no-stale]/
    [--inventory] surface and share the exit-code convention. *)

type family = {
  name : string;  (** first command-line argument, e.g. ["lint"] *)
  exts : string list;  (** extensions collected when walking directories *)
  rules_doc : (string * string) list;  (** (id, doc) printed by [--rules] *)
  run :
    allow:Allow.t ->
    stale:bool ->
    string list ->
    Finding.t list * (string * string) list;
      (** findings plus (file, reason) skip diagnostics — empty for the
          parsetree families, missing-[.cmt] files for the typed one *)
  inventory : string list -> unit;
      (** print the family's [--inventory] view of the given files *)
}

val collect_files : exts:string list -> string list -> string list
(** Expand paths: files kept as-is when matching an extension,
    directories walked recursively (skipping [_build] and dot-dirs),
    result sorted. *)

val main : family list -> 'a
(** Select the family named by the first argument, then parse
    [--allow FILE] (repeatable), [--json], [--rules] (print the family's
    rule table and exit), [--no-stale] (keep quiet about suppressions
    that suppress nothing), [--inventory] (print the inventory view and
    exit 0 — accepted in any argument position), then run and exit with
    0 (clean), 1 (findings) or 2 (usage error, unknown family, a PATH
    that contributes no source file, or an unparseable file).  Never
    returns. *)
