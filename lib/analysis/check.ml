(* The check family (A1, A2, A4–A6): cross-module architecture and
   abstraction-boundary rules.  Where the lint family guards
   replayability, these guard the shape of the codebase: the layer DAG,
   the MAC abstraction boundary the paper's algorithms are defined
   against, and the engine-access discipline that keeps instrumentation
   optional.

     A1  layer DAG back-edges                 references must point down
     A2  Graphs surface of lib/mmb            protocols are link-oblivious
     A4  engine access outside amac/obs       use the sanctioned seams
     A5  float =/<> in lib/                   use Float.equal/tolerances
     A6  Dyn epoch mutation outside dyn/amac  protocols are epoch-oblivious

   Scans both [.ml] and [.mli] files (interfaces carry cross-layer type
   references too).  Top-level mutable state is the race family's
   (R1/R4, over the classified inventory in {!State}). *)

(* --- A1: the layer DAG -------------------------------------------------- *)

let rule_a1 =
  {
    Rule.id = "A1";
    doc = "layer DAG: references must point strictly down " ^ Layers.dag;
    applies = (fun file -> Layers.of_path file <> None);
    build =
      (fun ~file report ->
        match Layers.of_path file with
        | None -> Astutil.null_iterator
        | Some here ->
            Refs.iter (fun r ->
                match r.Refs.r_path with
                | [] -> ()
                | m :: _ -> (
                    match Layers.of_module m with
                    | Some target
                      when target.Layers.rank > here.Layers.rank ->
                        report ~loc:r.Refs.r_loc
                          (Printf.sprintf
                             "layer back-edge: %s (layer %s) references the \
                              %s %s (layer %s); allowed flow is %s"
                             file here.Layers.name
                             (Refs.kind_to_string r.Refs.r_kind)
                             (String.concat "." r.Refs.r_path)
                             target.Layers.name Layers.dag)
                    | Some target
                      when target.Layers.rank = here.Layers.rank
                           && target.Layers.name <> here.Layers.name ->
                        report ~loc:r.Refs.r_loc
                          (Printf.sprintf
                             "sibling-layer edge: %s (layer %s) references \
                              the %s %s (layer %s); sibling layers are \
                              independent in %s"
                             file here.Layers.name
                             (Refs.kind_to_string r.Refs.r_kind)
                             (String.concat "." r.Refs.r_path)
                             target.Layers.name Layers.dag)
                    | _ -> ())));
  }

(* --- A2: the MAC abstraction boundary ----------------------------------- *)

let rule_a2 =
  {
    Rule.id = "A2";
    doc = "lib/mmb touches Graphs only through the sanctioned capability list";
    applies = Paths.in_dir ~dir:"lib/mmb";
    build =
      (fun ~file:_ report ->
        Refs.iter (fun r ->
            if not (Capability.mmb_sanctioned r.Refs.r_path) then
              report ~loc:r.Refs.r_loc
                (Printf.sprintf
                   "%s is outside lib/mmb's sanctioned Graphs surface; the \
                    paper's protocols are link-oblivious (adjacency answers \
                    reach them only through MAC delivery behaviour) — move \
                    the query below the MAC or into graphs/obs.  Sanctioned: \
                    %s"
                   (String.concat "." r.Refs.r_path)
                   Capability.mmb_surface_doc)));
  }

(* --- A4: engine access discipline --------------------------------------- *)

(* Scheduling engine events and emitting trace events are MAC-layer and
   observability-layer powers.  Protocols above the MAC inject work via
   Amac.Standard_mac.env_at and record via Amac.Mac_handle.record; the
   radio layer's own MAC implementations are allowlisted individually. *)
let banned_engine_calls =
  [
    [ "Dsim"; "Sim"; "schedule" ];
    [ "Sim"; "schedule" ];
    [ "Dsim"; "Sim"; "schedule_at" ];
    [ "Sim"; "schedule_at" ];
    [ "Dsim"; "Sim"; "cancel" ];
    [ "Sim"; "cancel" ];
    [ "Dsim"; "Trace"; "record" ];
    [ "Trace"; "record" ];
  ]

let rule_a4 =
  {
    Rule.id = "A4";
    doc = "Dsim.Sim injection / Trace emission confined to amac, pdes, obs";
    applies =
      (fun file ->
        Paths.in_dir ~dir:"lib" file
        && (not (Paths.in_dir ~dir:"lib/dsim" file))
        && (not (Paths.in_dir ~dir:"lib/amac" file))
        (* lib/pdes fuses protocol and MAC into one engine, so it *is*
           the MAC of its executions: scheduling and trace emission are
           its job, exactly as in lib/amac. *)
        && (not (Paths.in_dir ~dir:"lib/pdes" file))
        && not (Paths.in_dir ~dir:"lib/obs" file));
    build =
      (fun ~file:_ report ->
        Astutil.expr_rule (fun e ->
            match Astutil.ident_path e with
            | Some p when List.mem p banned_engine_calls ->
                report ~loc:e.Parsetree.pexp_loc
                  (Printf.sprintf
                     "%s is direct engine access from above the MAC; inject \
                      environment events with Amac.Standard_mac.env_at and \
                      record trace events with Amac.Mac_handle.record"
                     (String.concat "." p))
            | _ -> ()));
  }

(* --- A5: float equality ------------------------------------------------- *)

let rule_a5 =
  {
    Rule.id = "A5";
    doc = "float literal compared with polymorphic =/<> inside lib/";
    applies = Paths.in_dir ~dir:"lib";
    build =
      (fun ~file:_ report ->
        Astutil.expr_rule (fun e ->
            match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_apply (fn, [ (_, a); (_, b) ])
              when Astutil.path_is [ [ "=" ]; [ "<>" ] ] fn
                   && (Astutil.is_float_literal a
                      || Astutil.is_float_literal b) ->
                report ~loc:fn.Parsetree.pexp_loc
                  "float compared with polymorphic =/<>; use Float.equal \
                   (or an explicit tolerance) so the intent survives \
                   refactors into generic code"
            | _ -> ()));
  }

(* --- A6: epoch mutation discipline --------------------------------------- *)

(* Dynamic dual graphs advance only where the model says they may: the
   schedules themselves (lib/dyn), the MAC's delivery-plan consult +
   delivered-set probes (lib/amac), and the fused partition engine's
   plan-time consult (lib/pdes — each partition owns a private wrapper,
   so its epoch stepping is exactly the MAC's).  Everything else —
   protocols above the MAC, the observability layer, executables — may
   construct schedules and read epoch counters, but never step them. *)
let rule_a6 =
  {
    Rule.id = "A6";
    doc = "Dyn epoch mutation confined to lib/dyn, lib/amac, lib/pdes";
    applies =
      (fun file ->
        (not (Paths.in_dir ~dir:"lib/dyn" file))
        && (not (Paths.in_dir ~dir:"lib/amac" file))
        && not (Paths.in_dir ~dir:"lib/pdes" file));
    build =
      (fun ~file:_ report ->
        Refs.iter (fun r ->
            if not (Capability.dyn_epoch_oblivious r.Refs.r_path) then
              report ~loc:r.Refs.r_loc
                (Printf.sprintf
                   "%s mutates dynamic-graph epochs from outside lib/dyn; \
                    only the schedules themselves and the MAC's plan-time \
                    consult may advance epochs or feed the oracle — \
                    protocols stay epoch-oblivious (build the schedule, \
                    read the counters, never step them).  Mutator surface: \
                    %s"
                   (String.concat "." r.Refs.r_path)
                   Capability.dyn_mutator_doc)));
  }

(* The layer map behind --inventory: each file's layer and
   the set of other layers it references — the edge list rule A1 ranges
   over.  Unparseable files are silently skipped here (they surface as
   E0 findings in the main pass). *)
let layer_refs files =
  List.filter_map
    (fun file ->
      let source = Driver.read_file file in
      let lexbuf = Lexing.from_string source in
      Location.init lexbuf file;
      let parsed =
        if Filename.check_suffix file ".mli" then
          match Parse.interface lexbuf with
          | sg -> Some (`Intf sg)
          | exception _ -> None
        else
          match Parse.implementation lexbuf with
          | str -> Some (`Impl str)
          | exception _ -> None
      in
      match parsed with
      | None -> None
      | Some parsed ->
          let acc = ref [] in
          let it =
            Refs.iter (fun r ->
                match r.Refs.r_path with
                | m :: _ -> (
                    match Layers.of_module m with
                    | Some l -> acc := l.Layers.name :: !acc
                    | None -> ())
                | [] -> ())
          in
          (match parsed with
          | `Impl str -> it.Ast_iterator.structure it str
          | `Intf sg -> it.Ast_iterator.signature it sg);
          let own = Layers.of_path file in
          let refs =
            List.sort_uniq String.compare !acc
            |> List.filter (fun n ->
                   match own with
                   | Some l -> not (String.equal n l.Layers.name)
                   | None -> true)
          in
          Some (file, own, refs))
    files

let rules = [ rule_a1; rule_a2; rule_a4; rule_a5; rule_a6 ]

let print_layers files =
  List.iter
    (fun (file, layer, refs) ->
      Printf.printf "%s: %s%s\n" file
        (match layer with
        | Some (l : Layers.t) -> l.name
        | None -> "(outside DAG)")
        (match refs with [] -> "" | refs -> " -> " ^ String.concat " " refs))
    (layer_refs files)

let family =
  {
    Cli.name = "check";
    exts = [ ".ml"; ".mli" ];
    rules_doc = List.map (fun (r : Rule.t) -> (r.id, r.doc)) rules;
    run =
      (fun ~allow ~stale files ->
        (Driver.run_files ~rules ~allow ~stale files, []));
    inventory = print_layers;
  }
