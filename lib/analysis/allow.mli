(** Allowlists: suppress a whole (rule, path-suffix) pair out of band.

    Entries are hit-counted: after a run, {!stale} reports each entry
    that suppressed nothing as an [S2] finding, so allowlists cannot
    silently rot. *)

type t

val empty : t

val parse : ?src:string -> string -> t
(** Parse allowlist text: one ["RULE path/suffix.ml"] entry per line;
    blank lines and [#] comments ignored.  [src] names the originating
    file in stale reports. *)

val load : string -> t
(** {!parse} over a file's contents, with [src] set to its path. *)

val merge : t -> t -> t
(** Concatenate two allowlists (repeated [--allow] flags). *)

val allowed : t -> rule:string -> file:string -> bool
(** Does some entry cover this (rule, file)?  Suffixes match anchored at
    a path component ({!Paths.has_suffix}).  Every covering entry's hit
    count is bumped. *)

val stale : owns:(string -> bool) -> t -> Finding.t list
(** [S2] findings for entries whose hit count is still zero, among the
    entries whose rule id [owns] accepts: one allowlist serves every
    family, and an entry is judged only by the family that owns its id. *)
