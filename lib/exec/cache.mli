(** Content-addressed result cache: one JSONL entry file per job digest.

    Because the digest covers the canonical job spec {e and} a
    code-version salt ({!Job.digest}), re-running a campaign only executes
    changed or new cells; everything else is replayed from disk.  That
    makes the cache the campaign's checkpoint too: entries are stored as
    jobs finish, so a killed campaign re-run with the same cache resumes. *)

type t

val create : dir:string -> t
(** Open (creating directories as needed) a cache rooted at [dir].
    Any orphaned [*.jsonl.tmp.*] file left behind by a killed run is
    removed — sound because a cache directory has a single opening
    process at a time (workers share the coordinating process's [t]). *)

val dir : t -> string

val find : t -> digest:string -> Dsim.Json.t option
(** Entry for [digest], if present and well-formed.  Counts a hit or a
    miss.  Not domain-safe: call from the coordinating domain only. *)

val store : t -> digest:string -> ?disc:string -> Dsim.Json.t -> unit
(** Persist an entry (atomic temp-file + rename).  Safe to call from
    worker domains; pass a per-worker [disc]riminator so duplicate jobs
    never share a temp file. *)

val hits : t -> int
val misses : t -> int
