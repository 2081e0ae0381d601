(** A minimal, dependency-free JSON parser and printer — enough for
    scenario configuration files and trace tooling.

    Supports the full JSON value grammar (objects, arrays, strings with
    escapes, numbers, booleans, null).  Numbers are parsed as [float]
    (JSON's own number model); use {!member_int} for integral fields. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document (the error string carries an offset). *)

val to_string : t -> string
(** Compact printing; round-trips through {!parse}. *)

(** {1 Accessors} — each returns [Error] naming the missing/mistyped
    field. *)

val member : t -> string -> (t, string) result
val member_opt : t -> string -> t option
val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
(** An integral number in [[min_int, max_int]]; any other is an [Error]. *)

val to_bool : t -> (bool, string) result
val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result

val member_str : t -> string -> default:string -> (string, string) result
val member_int : t -> string -> default:int -> (int, string) result
val member_float : t -> string -> default:float -> (float, string) result
