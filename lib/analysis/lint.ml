(* The lint family (D1–D6): determinism rules over the project's OCaml
   sources.

   The paper's bounds are only checkable if every simulation run is
   bit-for-bit replayable from its seed.  This family parses each [.ml]
   into a Parsetree (compiler-libs) and walks it with [Ast_iterator],
   flagging the classic sources of silent nondeterminism:

     D1  Hashtbl.iter / Hashtbl.fold       unspecified iteration order
     D2  global Random.* outside Dsim.Rng  ambient, unseeded randomness
     D3  wall-clock / environment reads    ambient inputs in lib/
     D4  physical equality on non-ints     address-dependent results
     D5  polymorphic compare in sorts      fragile, untyped ordering
     D6  Domain/Mutex/Atomic outside       uncontrolled interleavings
         lib/exec and lib/pdes

   Adding a rule = one more entry in [rules]: give it an id, a path
   filter, and an [Ast_iterator] built from [Astutil.expr_rule]. *)

open Astutil

(* --- The rules ---------------------------------------------------------- *)

let rule_d1 =
  {
    Rule.id = "D1";
    doc = "Hashtbl.iter/Hashtbl.fold: iteration order is unspecified";
    applies = (fun _ -> true);
    build =
      (fun ~file:_ report ->
        expr_rule (fun e ->
            match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_apply (fn, _)
              when path_is [ [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "fold" ] ] fn
              ->
                report ~loc:fn.Parsetree.pexp_loc
                  "Hashtbl iteration order is unspecified under seeded \
                   hashing; use Dsim.Tbl.sorted_iter/sorted_fold, or \
                   Dsim.Tbl.iter_commutative when the per-binding effects \
                   provably commute (pure field writes, counter bumps)"
            | _ -> ()));
  }

let rule_d2 =
  {
    Rule.id = "D2";
    doc = "global Random.* outside Dsim.Rng";
    applies =
      (fun file -> not (Paths.has_suffix ~suffix:"lib/dsim/rng.ml" file));
    build =
      (fun ~file:_ report ->
        expr_rule (fun e ->
            match ident_path e with
            | Some ("Random" :: _ :: _) ->
                report ~loc:e.Parsetree.pexp_loc
                  "ambient Random state breaks seeded replay; route \
                   randomness through Dsim.Rng"
            | _ -> ()));
  }

let rule_d3 =
  let banned =
    [
      [ "Sys"; "time" ];
      [ "Unix"; "time" ];
      [ "Unix"; "gettimeofday" ];
      [ "Sys"; "getenv" ];
      [ "Sys"; "getenv_opt" ];
    ]
  in
  {
    Rule.id = "D3";
    doc = "wall-clock/ambient reads inside lib/";
    applies = Paths.in_dir ~dir:"lib";
    build =
      (fun ~file:_ report ->
        expr_rule (fun e ->
            match ident_path e with
            | Some p when List.mem p banned ->
                report ~loc:e.Parsetree.pexp_loc
                  (Printf.sprintf
                     "%s is an ambient input; simulation libraries must \
                      depend only on the seed and scenario"
                     (String.concat "." p))
            | _ -> ()));
  }

let rule_d4 =
  {
    Rule.id = "D4";
    doc = "physical equality on non-int expressions";
    applies = (fun _ -> true);
    build =
      (fun ~file:_ report ->
        expr_rule (fun e ->
            match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_apply (fn, [ (_, a); (_, b) ])
              when path_is [ [ "==" ]; [ "!=" ] ] fn
                   && (not (is_int_literal a))
                   && not (is_int_literal b) ->
                report ~loc:fn.Parsetree.pexp_loc
                  "physical equality depends on allocation, not value; use \
                   structural (=) or a typed equal"
            | _ -> ()));
  }

let sort_functions =
  [
    [ "List"; "sort" ];
    [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ];
    [ "List"; "sort_uniq" ];
    [ "Array"; "sort" ];
    [ "Array"; "stable_sort" ];
    [ "Array"; "fast_sort" ];
  ]

let poly_cmp_idents =
  [ [ "compare" ]; [ "Poly"; "compare" ]; [ "=" ]; [ "<" ]; [ ">" ]; [ "<=" ]; [ ">=" ]; [ "<>" ] ]

(* Does a comparator expression lean on polymorphic comparison?  Either it
   IS [compare], or it is a lambda that applies [compare] / a polymorphic
   comparison operator somewhere inside. *)
let rec comparator_is_polymorphic cmp =
  if path_is [ [ "compare" ]; [ "Poly"; "compare" ] ] cmp then true
  else
    match cmp.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun (_, _, _, body) -> comparator_is_polymorphic body
    | Parsetree.Pexp_function _ -> false
    | Parsetree.Pexp_apply (fn, args) ->
        path_is poly_cmp_idents fn
        || List.exists (fun (_, a) -> comparator_is_polymorphic a) args
    | Parsetree.Pexp_ifthenelse (c, t, e) ->
        comparator_is_polymorphic c || comparator_is_polymorphic t
        || (match e with Some e -> comparator_is_polymorphic e | None -> false)
    | _ -> false

let rule_d5 =
  {
    Rule.id = "D5";
    doc = "polymorphic compare in sort comparators inside lib/";
    applies = Paths.in_dir ~dir:"lib";
    build =
      (fun ~file:_ report ->
        expr_rule (fun e ->
            match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_apply (fn, (_, cmp) :: _)
              when path_is sort_functions fn && comparator_is_polymorphic cmp
              ->
                report ~loc:cmp.Parsetree.pexp_loc
                  "polymorphic compare in a sort comparator; use a typed \
                   comparator (Int.compare, String.compare, ...)"
            | _ -> ()));
  }

(* Parallel primitives are confined to lib/exec and lib/pdes: the pool
   (exec) is the sanctioned bridge for independent jobs, and the
   horizon-parallel engine (pdes) is the sanctioned bridge for one
   partitioned run — both keep determinism by construction (disjoint
   state plus barrier ordering).  Anywhere else, Domain/Mutex/Atomic use
   means shared mutable state whose interleaving the seed does not
   control.  Domain.DLS is included: domain-local state outside the two
   subsystems would hide cross-domain data flow from the race family. *)
let parallel_modules = [ "Domain"; "Mutex"; "Atomic"; "Condition"; "Thread"; "Semaphore" ]

let rule_d6 =
  {
    Rule.id = "D6";
    doc =
      "parallel primitives (Domain/Mutex/Atomic/...) outside lib/exec and \
       lib/pdes";
    applies =
      (fun file ->
        (not (Paths.in_dir ~dir:"lib/exec" file))
        && not (Paths.in_dir ~dir:"lib/pdes" file));
    build =
      (fun ~file:_ report ->
        expr_rule (fun e ->
            match ident_path e with
            | Some (m :: _ :: _) when List.mem m parallel_modules ->
                report ~loc:e.Parsetree.pexp_loc
                  (Printf.sprintf
                     "%s belongs to the exec/pdes subsystems; parallel \
                      primitives elsewhere make scheduling \
                      nondeterminism possible everywhere"
                     m)
            | _ -> ()));
  }

let rules = [ rule_d1; rule_d2; rule_d3; rule_d4; rule_d5; rule_d6 ]

(* The hatch map behind --inventory: every suppression comment with the
   rule ids it waives, whichever family owns them.  The rules are only
   as strong as the list of places they are switched off; this prints
   that list. *)
let print_hatches files =
  List.iter
    (fun file ->
      List.iter
        (fun (line, ids) ->
          Printf.printf "%s:%d: %s %s\n" file line Suppress.marker
            (String.concat " " ids))
        (Suppress.entries (Suppress.scan (Driver.read_file file))))
    files

let family =
  {
    Cli.name = "lint";
    exts = [ ".ml" ];
    rules_doc = List.map (fun (r : Rule.t) -> (r.id, r.doc)) rules;
    run =
      (fun ~allow ~stale files ->
        (Driver.run_files ~rules ~allow ~stale files, []));
    inventory = print_hatches;
  }
