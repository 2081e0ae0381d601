(** Small Parsetree helpers shared by the analyzers' rules. *)

val flatten_longident : Longident.t -> string list
(** [A.B.c] becomes [["A"; "B"; "c"]]; functor applications flatten to
    [[]] (never matched by rules). *)

val longident_path : Longident.t -> string list
(** {!flatten_longident} with any leading [Stdlib] dropped. *)

val ident_path : Parsetree.expression -> string list option
(** Module path of an identifier expression, [Stdlib]-normalized. *)

val path_is : string list list -> Parsetree.expression -> bool
(** Is the expression an identifier whose path is one of the candidates? *)

val is_int_literal : Parsetree.expression -> bool
val is_float_literal : Parsetree.expression -> bool

val null_iterator : Ast_iterator.iterator
(** An iterator that visits nothing: for rule builds that decide, from
    the file alone, that nothing can match. *)

val expr_rule : (Parsetree.expression -> unit) -> Ast_iterator.iterator
(** Iterator running a callback on every expression (recursing). *)
