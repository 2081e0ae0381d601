(* The race family (R1, R2, R4): domain-safety and mutable-state escape
   rules.  Before the engine is partitioned across Domains, every piece
   of mutable state the workers could reach must be classified —
   immutable-after-init, domain-local, registry-confined,
   atomic-protected, or shared-unprotected — and the last class must be
   empty.  Where the lint family's D6 bluntly confines parallel
   primitives (Domain.DLS included) to lib/exec and lib/pdes, these
   rules answer the question that actually gates the multicore engine:
   which mutable state could two Domains touch at once?

     R1  shared-unprotected top-level mutable state (DLS / Atomic /
         registry-confined state stays silent)
     R2  closures handed to Domain.spawn / Pool.run capturing mutable
         non-atomic local bindings
     R4  top-level lazy / memoized values, unless forced at init

   R1/R4 range over the classified inventory ({!State}) of every lib/
   unit, and of the bench/ and bin/ units the reachability graph
   ({!Reach}) puts on a worker.  All three are syntactic
   over-approximations feeding a human decision: fix the state, confine
   it, or justify an allowlist entry. *)

(* Race rules scan executable trees only: the simulation libraries plus
   the executables that drive pools. *)
let in_scope file =
  Paths.in_dir ~dir:"lib" file
  || Paths.in_dir ~dir:"bench" file
  || Paths.in_dir ~dir:"bin" file

(* R1/R4 cover every lib/ unit: library state is one refactor away from
   a worker, so a worker-reachability verdict there would only postpone
   the finding.  In bench/ and bin/ they follow the reachability graph —
   executables hold driver-side state (a test harness's unforced lazies)
   that no worker ever sees. *)
let in_reach reach ~file =
  Paths.in_dir ~dir:"lib" file || Reach.worker_reachable reach ~file

(* One iterator that runs [f] once over the whole structure. *)
let structure_rule f =
  {
    Ast_iterator.default_iterator with
    structure = (fun _ str -> f str);
    signature = (fun _ _ -> ());
  }

(* --- R1: shared-unprotected top-level state ------------------------------ *)

let rule_r1 ~reach =
  {
    Rule.id = "R1";
    doc =
      "shared-unprotected top-level mutable state in lib/ (or \
       worker-reachable in bench/ and bin/)";
    applies = in_scope;
    build =
      (fun ~file report ->
        if not (in_reach reach ~file) then Astutil.null_iterator
        else
          structure_rule (fun str ->
              List.iter
                (fun (i : State.item) ->
                  match i.State.i_cls with
                  | State.Shared ->
                      report ~loc:i.State.i_loc
                        (Printf.sprintf
                           "top-level %s `%s' is shared-unprotected mutable \
                            state; two Domains could touch it unsynchronized \
                            — confine it to Domain.DLS (in lib/exec), an \
                            Atomic, or the registry indirection, or thread \
                            it through per-run records"
                           i.State.i_creator i.State.i_name)
                  | _ -> ())
                (State.of_structure ~file str)));
  }

(* --- R2: mutable captures crossing the spawn boundary ------------------- *)

let spawn_entries =
  [
    [ "Domain"; "spawn" ];
    [ "Pool"; "run" ];
    [ "Exec"; "Pool"; "run" ];
  ]

(* Is this local binding's initializer a mutable allocation the spawned
   closure must not capture?  Atomic / Mutex cells are the sanctioned
   cross-domain primitives; DLS keys are per-domain handles. *)
let binding_mutability e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (fn, _) -> (
      match Astutil.ident_path fn with
      | Some p when List.mem p State.shared_creators ->
          Some (String.concat "." p)
      | _ -> None)
  | _ -> None

let rule_r2 =
  {
    Rule.id = "R2";
    doc =
      "closure passed to Domain.spawn / Pool.run captures mutable \
       non-atomic bindings";
    applies = (fun _ -> true);
    build =
      (fun ~file:_ report ->
        (* Environment of visible let-bound mutable allocations, scoped
           by save/restore around each binder. *)
        let env : (string * string) list ref = ref [] in
        let check_closure ~loc closure =
          let captured =
            State.idents_of closure
            |> List.filter_map (fun name ->
                   Option.map (fun c -> (name, c)) (List.assoc_opt name !env))
            |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
          in
          match captured with
          | [] -> ()
          | caps ->
              report ~loc
                (Printf.sprintf
                   "closure crossing the Domain boundary captures mutable \
                    non-atomic binding(s) %s; workers would share the \
                    allocation unsynchronized — pass data through the \
                    task index, DLS, or Atomics"
                   (String.concat ", "
                      (List.map
                         (fun (n, c) -> Printf.sprintf "`%s' (%s)" n c)
                         caps)))
        in
        let add_binding vb =
          match State.pat_name vb.Parsetree.pvb_pat with
          | None -> ()
          | Some name -> (
              match binding_mutability vb.Parsetree.pvb_expr with
              | Some creator -> env := (name, creator) :: !env
              | None -> env := List.remove_assoc name !env)
        in
        let rec iter =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun it e ->
                match e.Parsetree.pexp_desc with
                | Parsetree.Pexp_let (_, vbs, body) ->
                    List.iter
                      (fun vb -> iter.Ast_iterator.expr it vb.Parsetree.pvb_expr)
                      vbs;
                    let saved = !env in
                    List.iter add_binding vbs;
                    iter.Ast_iterator.expr it body;
                    env := saved
                | Parsetree.Pexp_apply (fn, args)
                  when Astutil.path_is spawn_entries fn ->
                    (* The spawned closure is the last unlabelled
                       argument (Domain.spawn f / Pool.run ~jobs ~tasks f). *)
                    let closure =
                      List.fold_left
                        (fun acc (lbl, a) ->
                          match lbl with
                          | Asttypes.Nolabel -> Some a
                          | _ -> acc)
                        None args
                    in
                    Option.iter
                      (fun c -> check_closure ~loc:fn.Parsetree.pexp_loc c)
                      closure;
                    Ast_iterator.default_iterator.expr it e
                | _ -> Ast_iterator.default_iterator.expr it e);
            structure_item =
              (fun it si ->
                (match si.Parsetree.pstr_desc with
                | Parsetree.Pstr_value (_, vbs) ->
                    List.iter add_binding vbs
                | _ -> ());
                Ast_iterator.default_iterator.structure_item it si);
          }
        in
        iter);
  }

(* --- R4: unforced lazies / memoized closures ----------------------------- *)

let rule_r4 ~reach =
  {
    Rule.id = "R4";
    doc =
      "top-level lazy / memoized value in lib/ (or worker-reachable in \
       bench/ and bin/) not forced at init";
    applies = in_scope;
    build =
      (fun ~file report ->
        if not (in_reach reach ~file) then Astutil.null_iterator
        else
          structure_rule (fun str ->
              List.iter
                (fun (i : State.item) ->
                  match i.State.i_cls with
                  | State.Lazy_init ->
                      report ~loc:i.State.i_loc
                        (Printf.sprintf
                           "top-level lazy `%s' is not forced at init: a \
                            first force racing across Domains raises \
                            Lazy.Undefined; force it from a `let () = ...' \
                            at init or justify an analysis.allow entry"
                           i.State.i_name)
                  | State.Memo_closure ->
                      report ~loc:i.State.i_loc
                        (Printf.sprintf
                           "memoized closure `%s' captures init-allocated \
                            mutable state (%s); concurrent calls mutate the \
                            shared cache — make the cache per-instance, \
                            per-domain (DLS in lib/exec), or justify an \
                            analysis.allow entry"
                           i.State.i_name i.State.i_creator)
                  | _ -> ())
                (State.of_structure ~file str)));
  }

let rules ~reach = [ rule_r1 ~reach; rule_r2; rule_r4 ~reach ]

(* Parse every file once for the reachability pre-pass; unparseable
   files drop out here and surface as E0 findings in the main pass. *)
let parse_files files =
  List.filter_map
    (fun file ->
      if Filename.check_suffix file ".mli" then None
      else
        let lexbuf = Lexing.from_string (Driver.read_file file) in
        Location.init lexbuf file;
        match Parse.implementation lexbuf with
        | str -> Some (file, str)
        | exception _ -> None)
    files

let reach_of_files files = Reach.compute (parse_files files)

(* The whole-tree inventory behind --inventory: every classified item,
   with worker-reachability noted per unit. *)
let inventory files =
  let parsed = parse_files files in
  let reach = Reach.compute parsed in
  List.map
    (fun (file, str) ->
      (file, Reach.worker_reachable reach ~file, State.of_structure ~file str))
    parsed

let print_inventory files =
  List.iter
    (fun (file, reachable, items) ->
      List.iter
        (fun (i : State.item) ->
          Printf.printf "%s:%d: %s %s (%s)%s\n" file
            i.i_loc.Location.loc_start.Lexing.pos_lnum
            (State.cls_to_string i.i_cls)
            i.i_name i.i_creator
            (if reachable then " [worker-reachable]" else ""))
        items)
    (inventory files)

let family =
  {
    Cli.name = "race";
    exts = [ ".ml" ];
    rules_doc =
      List.map
        (fun (r : Rule.t) -> (r.id, r.doc))
        (rules ~reach:Reach.assume_all);
    run =
      (fun ~allow ~stale files ->
        let rules = rules ~reach:(reach_of_files files) in
        (Driver.run_files ~rules ~allow ~stale files, []));
    inventory = print_inventory;
  }
