(* Module-level worker-reachability.

   Which compilation units can execute on a Pool worker domain?  The
   honest static answer is an over-approximation built from the
   cross-unit reference graph:

     - every unit in lib/exec or lib/pdes is a root: the pool and the
       horizon-parallel engine spawn worker domains, so they and
       everything they call run on workers by definition;
     - every unit that references the exec library at all is a root
       too: such a unit can build a closure from anything it references
       and hand it to [Pool.run] / [Campaign.run] (bench/main.ml and
       bin/mmb_sim.ml do exactly this);
     - reachability then closes transitively over references: if a
       worker can execute unit U, it can execute anything U mentions.

   Unit identity is (library, Module): a file lib/<dir>/<name>.ml is
   (<dir>, Name); bench/ and bin/ are their own pseudo-libraries.
   References resolve the same way the compiler's wrapped libraries do:
   a path head naming a wrapped library (Dsim, Graphs, Dyn, Amac, Mmb,
   Radio, Obs, Exec) points at that library's unit (or the whole
   library for bare/module-alias references); a bare module name
   resolves within the referencing unit's own library first.

   Files the graph has never seen (posed fixture paths in tests, or a
   single-file CLI invocation) are reported reachable: when the tree
   context is missing, the conservative answer is the safe one. *)

type unit_id = string (* "<lib>/<Module>", e.g. "exec/Pool" *)

type t = { reachable : (unit_id, unit) Hashtbl.t option }

let assume_all = { reachable = None }

let wrapped_libs =
  [
    ("Dsim", "dsim");
    ("Graphs", "graphs");
    ("Dyn", "dyn");
    ("Amac", "amac");
    ("Pdes", "pdes");
    ("Mmb", "mmb");
    ("Radio", "radio");
    ("Obs", "obs");
    ("Exec", "exec");
  ]

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* (library, Module) of a source path, or None for paths outside the
   scanned tree shape (lib/<d>/, bench/, bin/). *)
let unit_of_path file =
  let comps = String.split_on_char '/' file in
  let rec go = function
    | "lib" :: d :: [ _ ] -> Some (d ^ "/" ^ module_of_file file)
    | "bench" :: _ -> Some ("bench/" ^ module_of_file file)
    | "bin" :: _ -> Some ("bin/" ^ module_of_file file)
    | _ :: rest -> go rest
    | [] -> None
  in
  go comps

let lib_of_unit u =
  match String.index_opt u '/' with
  | Some i -> String.sub u 0 i
  | None -> u

(* All idents a unit references, as resolved unit ids (plus a flag for
   "references exec at all").  [units] maps unit_id -> (), used to
   resolve bare module names inside the same library and to expand
   whole-library references. *)
let refs_of_structure ~self ~units ~unit_list str =
  let own_lib = lib_of_unit self in
  let touched_exec = ref false in
  let out = ref [] in
  let lib_units lib = List.filter (fun u -> lib_of_unit u = lib) unit_list in
  let emit lid =
    match Astutil.longident_path lid with
    | [] -> ()
    | head :: rest -> (
        match List.assoc_opt head wrapped_libs with
        | Some lib ->
            if lib = "exec" then touched_exec := true;
            (match rest with
            | sub :: _ when Hashtbl.mem units (lib ^ "/" ^ sub) ->
                out := (lib ^ "/" ^ sub) :: !out
            | _ ->
                (* Bare library reference (open/alias): all its units. *)
                out := lib_units lib @ !out)
        | None ->
            (* A bare module head resolves inside our own library. *)
            let u = own_lib ^ "/" ^ head in
            if Hashtbl.mem units u then begin
              out := u :: !out;
              if lib_of_unit u = "exec" then touched_exec := true
            end)
  in
  let it =
    let open Ast_iterator in
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident lid -> emit lid.Location.txt
          | Parsetree.Pexp_construct (lid, _) -> emit lid.Location.txt
          | Parsetree.Pexp_field (_, lid) -> emit lid.Location.txt
          | Parsetree.Pexp_setfield (_, lid, _) -> emit lid.Location.txt
          | Parsetree.Pexp_record (fields, _) ->
              List.iter (fun (lid, _) -> emit lid.Location.txt) fields
          | _ -> ());
          default_iterator.expr it e);
      typ =
        (fun it ty ->
          (match ty.Parsetree.ptyp_desc with
          | Parsetree.Ptyp_constr (lid, _) -> emit lid.Location.txt
          | _ -> ());
          default_iterator.typ it ty);
      module_expr =
        (fun it me ->
          (match me.Parsetree.pmod_desc with
          | Parsetree.Pmod_ident lid -> emit lid.Location.txt
          | _ -> ());
          default_iterator.module_expr it me);
    }
  in
  it.Ast_iterator.structure it str;
  (!out, !touched_exec)

let compute parsed =
  (* parsed : (file, structure) list for every scanned unit. *)
  let units = Hashtbl.create 64 in
  List.iter
    (fun (file, _) ->
      match unit_of_path file with
      | Some u -> Hashtbl.replace units u ()
      | None -> ())
    parsed;
  let unit_list =
    List.sort_uniq String.compare
      (List.filter_map (fun (file, _) -> unit_of_path file) parsed)
  in
  let edges = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun (file, str) ->
      match unit_of_path file with
      | None -> ()
      | Some self ->
          let refs, touched_exec =
            refs_of_structure ~self ~units ~unit_list str
          in
          Hashtbl.replace edges self refs;
          (* lib/pdes units are roots like lib/exec's: the engine spawns
             its own worker domains.  Unlike exec, *touching* pdes does
             not make a unit a root — Pdes.Engine.run accepts no caller
             closures that execute on workers (mk_dyn runs on the
             coordinator; the wrappers it builds are dyn-library values,
             reachable from pdes itself). *)
          if
            lib_of_unit self = "exec"
            || lib_of_unit self = "pdes"
            || touched_exec
          then roots := self :: !roots)
    parsed;
  let reachable = Hashtbl.create 64 in
  let rec visit u =
    if not (Hashtbl.mem reachable u) then begin
      Hashtbl.add reachable u ();
      List.iter visit (try Hashtbl.find edges u with Not_found -> [])
    end
  in
  List.iter visit !roots;
  { reachable = Some reachable }

let worker_reachable t ~file =
  match t.reachable with
  | None -> true
  | Some tbl -> (
      match unit_of_path file with
      | None -> true (* unknown tree shape: be conservative *)
      | Some u -> Hashtbl.mem tbl u)
