(* The parsetree rule shape the lint, check and race families
   instantiate.  [build] receives the file path so rules whose behaviour
   depends on where the code lives (the checker's layer rule, above all)
   can close over it. *)

type reporter = loc:Location.t -> string -> unit

type t = {
  id : string;
  doc : string;
  applies : string -> bool;
  build : file:string -> reporter -> Ast_iterator.iterator;
}
