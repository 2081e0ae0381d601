(** A single analyzer finding — the currency every rule family deals
    in. *)

type t = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : string;  (** rule id, e.g. ["D1"] or ["A3"]; ["E0"] = parse error *)
  msg : string;
}

val to_string : t -> string
(** [file:line:col [rule-id] message] — the CLI output format. *)

val compare : t -> t -> int
(** Orders by (file, line, col, rule). *)

val parse_error : file:string -> t
(** The single [E0] finding an unparseable file yields. *)

val is_error : t -> bool
(** Is this an [E*] infrastructure finding (CLI exit code 2)? *)
