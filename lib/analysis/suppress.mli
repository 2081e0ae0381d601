(** In-source suppression comments.

    A comment containing {!marker} followed by rule ids suppresses those
    rules on the comment's line and the line directly below it.  There
    is one marker for every rule family: rule ids are unique, so a hatch
    naming [D1] can only ever silence the determinism lint.  Hit counts
    are kept per id and feed {!stale}, which reports ids that suppressed
    nothing as [S1] findings. *)

type t

val marker : string
(** The one suppression marker, ["analysis: allow"]. *)

val is_rule_id : string -> bool
(** An uppercase letter followed by digits, e.g. ["D1"], ["A42"]. *)

val scan : string -> t
(** Collect the suppression comments of one source file. *)

val entries : t -> (int * string list) list
(** [(line, rule ids)] of every comment, in source order: the hatch map
    [mmb_analyze lint --inventory] prints. *)

val suppressed : t -> rule:string -> line:int -> bool
(** Is [rule] suppressed at [line]?  Records a hit for [rule] on every
    covering comment. *)

val stale : owns:(string -> bool) -> t -> file:string -> Finding.t list
(** [S1] findings for comments naming an id that [owns] accepts and that
    suppressed nothing.  Ids another family owns are that family's to
    judge. *)
