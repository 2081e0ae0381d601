(** The parsetree rule shape (the lint, check and race families). *)

type reporter = loc:Location.t -> string -> unit

type t = {
  id : string;  (** e.g. ["D1"], ["A3"] *)
  doc : string;  (** one-line description for [--rules] *)
  applies : string -> bool;  (** path filter, repo-relative *)
  build : file:string -> reporter -> Ast_iterator.iterator;
      (** builds the per-file iterator; [file] lets location-dependent
          rules (the layer rule) know where the code lives *)
}
