(* The check family (A-rules): fixture files under lint_fixtures/
   exercise every A-rule's positive hit and the escape hatches; inline
   sources pin the scope boundaries (which layer poses fire, which are
   exempt); and a real-tree scan asserts the shipped sources stay clean
   under the shipped allowlist, exactly as `dune build @check` runs it. *)

let rules_of findings = List.map (fun f -> f.Analysis.Finding.rule) findings
let lines_of findings = List.map (fun f -> f.Analysis.Finding.line) findings

let check_rules name expected findings =
  Alcotest.(check (list string)) name expected (rules_of findings)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_source ?allow ~file source =
  Analysis.Driver.run_source ~rules:Analysis.Check.rules ?allow ~file source

let run_files ?allow ~stale files =
  Analysis.Driver.run_files ~rules:Analysis.Check.rules ?allow ~stale files

(* Pose a fixture file at a path, so rule scopes see it "living" there. *)
let posed fixture file = check_source ~file (read_file fixture)

(* --- A1: layer DAG ------------------------------------------------------- *)

let test_a1_backedge () =
  let fs = posed "lint_fixtures/a1_backedge.ml" "lib/mmb/fixture.ml" in
  check_rules "protocol layer referencing obs is a back-edge" [ "A1"; "A1" ]
    fs;
  Alcotest.(check (list int)) "on the two reference lines" [ 3; 5 ]
    (lines_of fs);
  check_rules "the same references are legal from bench" []
    (posed "lint_fixtures/a1_backedge.ml" "bench/fixture.ml");
  check_rules "and from the obs layer itself" []
    (posed "lint_fixtures/a1_backedge.ml" "lib/obs/fixture.ml")

let test_a1_seeded_dsim_backedge () =
  (* The acceptance seed: an Amac reference from lib/dsim must trip A1. *)
  let src = "let f ~uid ~src body = Amac.Message.make ~uid ~src body" in
  check_rules "dsim referencing amac is a back-edge" [ "A1" ]
    (check_source ~file:"lib/dsim/fixture.ml" src);
  check_rules "amac referencing amac-from-above is fine" []
    (check_source ~file:"lib/mmb/fixture.ml" src)

let test_a1_siblings () =
  let src = "let f () = Radio.Decay.default" in
  check_rules "mmb referencing radio is a sibling edge" [ "A1" ]
    (check_source ~file:"lib/mmb/fixture.ml" src);
  let src' = "let f () = Mmb.Problem.uniform" in
  check_rules "radio referencing mmb is a sibling edge" [ "A1" ]
    (check_source ~file:"lib/radio/fixture.ml" src');
  check_rules "obs may reference mmb (it sits above)" []
    (check_source ~file:"lib/obs/fixture.ml" src')

let test_a1_interfaces () =
  check_rules "type references in .mli files count" [ "A1" ]
    (check_source ~file:"lib/mmb/fixture.mli"
       "val finish : Obs.Observer.t -> unit");
  check_rules "downward type references are fine" []
    (check_source ~file:"lib/obs/fixture.mli"
       "val wrap : Mmb.Problem.assignment -> unit")

(* --- A2: the MAC abstraction boundary ------------------------------------ *)

let test_a2_boundary () =
  let fs = posed "lint_fixtures/a2_memedge.ml" "lib/mmb/fixture.ml" in
  check_rules "adjacency query flagged, Dual surface not" [ "A2" ] fs;
  Alcotest.(check (list int)) "on the mem_edge line" [ 3 ] (lines_of fs);
  check_rules "the same query is legal in obs" []
    (posed "lint_fixtures/a2_memedge.ml" "lib/obs/fixture.ml");
  check_rules "and in graphs itself" []
    (posed "lint_fixtures/a2_memedge.ml" "lib/graphs/fixture.ml")

let test_a2_open_denied () =
  check_rules "open Graphs makes the surface ambient: denied" [ "A2" ]
    (check_source ~file:"lib/mmb/fixture.ml"
       "open Graphs\n\nlet f d = Dual.n d");
  check_rules "unknown submodules are denied by default" [ "A2" ]
    (check_source ~file:"lib/mmb/fixture.mli"
       "val m : Graphs.Matrix.t -> int")

(* --- A4: engine access discipline ---------------------------------------- *)

let test_a4_engine () =
  let fs = posed "lint_fixtures/a4_engine.ml" "lib/mmb/fixture.ml" in
  check_rules "schedule_at and Trace.record flagged above the MAC"
    [ "A4"; "A4" ] fs;
  check_rules "the MAC layer owns the engine" []
    (posed "lint_fixtures/a4_engine.ml" "lib/amac/fixture.ml");
  check_rules "so does the observability layer" []
    (posed "lint_fixtures/a4_engine.ml" "lib/obs/fixture.ml");
  check_rules "and the engine itself" []
    (posed "lint_fixtures/a4_engine.ml" "lib/dsim/fixture.ml")

(* --- A5: float equality -------------------------------------------------- *)

let test_a5_float_eq () =
  let fs = posed "lint_fixtures/a5_floateq.ml" "lib/mmb/fixture.ml" in
  check_rules "= and <> against float literals flagged" [ "A5"; "A5" ] fs;
  Alcotest.(check (list int)) "Float.equal and int = exempt" [ 3; 5 ]
    (lines_of fs);
  check_rules "out of scope outside lib/" []
    (posed "lint_fixtures/a5_floateq.ml" "bench/fixture.ml")

(* --- A6: epoch mutation discipline ---------------------------------------- *)

let test_a6_epoch () =
  let fs = posed "lint_fixtures/a6_epoch.ml" "lib/mmb/fixture.ml" in
  check_rules "view consult and oracle probe flagged, constructor not"
    [ "A6"; "A6" ] fs;
  Alcotest.(check (list int)) "on the view and note_delivery lines" [ 6; 7 ]
    (lines_of fs);
  check_rules "the MAC's consult seam is sanctioned" []
    (posed "lint_fixtures/a6_epoch.ml" "lib/amac/fixture.ml");
  check_rules "lib/dyn owns its own epochs" []
    (posed "lint_fixtures/a6_epoch.ml" "lib/dyn/fixture.ml");
  check_rules "executables may not step epochs either" [ "A6"; "A6" ]
    (posed "lint_fixtures/a6_epoch.ml" "bin/fixture.ml")

let test_a6_open_denied () =
  check_rules "open Dyn makes the mutator surface ambient: denied" [ "A6" ]
    (check_source ~file:"lib/mmb/fixture.ml"
       "open Dyn\n\nlet f s = Dual.of_static s")

(* --- Escape hatches ------------------------------------------------------ *)

(* One marker serves every family; the rule id decides which family a
   hatch can silence. *)
let test_hatches_per_family () =
  let file = "lib/mmb/fixture.ml" in
  let src id =
    Printf.sprintf "(* analysis: allow %s *)\nlet f a = a = 0." id
  in
  check_rules "a hatch naming the A-rule suppresses" []
    (check_source ~file (src "A5"));
  check_rules "a hatch naming another family's id does not" [ "A5" ]
    (check_source ~file (src "D4"));
  check_rules "nor does a hatch naming an A-id with no rule" [ "A5" ]
    (check_source ~file (src "A3"))

let test_allowlist () =
  let source = read_file "lint_fixtures/a5_floateq.ml" in
  let file = "lib/mmb/fixture.ml" in
  check_rules "allowlist entry silences the file" []
    (check_source ~file ~allow:(Analysis.Allow.parse ("A5 " ^ file)) source);
  check_rules "another rule's entry does not" [ "A5"; "A5" ]
    (check_source ~file ~allow:(Analysis.Allow.parse ("A4 " ^ file)) source)

let test_clean_fixture () =
  check_rules "clean fixture has zero findings" []
    (posed "lint_fixtures/check_clean.ml" "lib/mmb/fixture.ml")

let test_parse_error_is_a_finding () =
  check_rules "unparseable source yields E0" [ "E0" ]
    (check_source ~file:"lib/mmb/fixture.ml" "let = =")

(* --- Stale escape hatches ------------------------------------------------ *)

let test_stale_suppression () =
  (* The fixture's comments name A3, an A-id with no rule behind it, so
     neither suppresses anything — and an id carrying the A letter is
     this family's to report stale. *)
  let fs = run_files ~stale:true [ "lint_fixtures/a3_suppressed.ml" ] in
  check_rules "comments that suppress nothing are reported" [ "S1"; "S1" ] fs;
  check_rules "the lint family leaves them to the check family" []
    (Analysis.Driver.run_files ~rules:Analysis.Lint.rules ~stale:true
       [ "lint_fixtures/a3_suppressed.ml" ])

let test_stale_allow_entry () =
  let fs =
    run_files ~stale:true
      ~allow:(Analysis.Allow.parse "A4 nowhere/such_file.ml")
      [ "lint_fixtures/check_clean.ml" ]
  in
  check_rules "an entry suppressing nothing is reported" [ "S2" ] fs

(* --- The real tree ------------------------------------------------------- *)

(* The same scan `dune build @check` performs, minus bin/bench (the test
   binary sees only lib/ staged next to it): the shipped sources must be
   clean under the shipped allowlist.  This is the end-to-end guarantee
   the fixtures above only approximate. *)
let test_real_tree () =
  let files = Analysis.Cli.collect_files ~exts:[ ".ml"; ".mli" ] [ "../lib" ] in
  Alcotest.(check bool)
    (Printf.sprintf "scanned a substantial tree (%d files)" (List.length files))
    true
    (List.length files > 60);
  let allow = Analysis.Allow.load "../analysis.allow" in
  let fs = run_files ~allow ~stale:true files in
  Alcotest.(check (list string)) "lib/ is architecture-clean" []
    (List.map Analysis.Finding.to_string fs)

let suite =
  [
    ( "check",
      [
        Alcotest.test_case "A1 layer back-edges" `Quick test_a1_backedge;
        Alcotest.test_case "A1 seeded dsim->amac back-edge" `Quick
          test_a1_seeded_dsim_backedge;
        Alcotest.test_case "A1 sibling layers" `Quick test_a1_siblings;
        Alcotest.test_case "A1 interface references" `Quick test_a1_interfaces;
        Alcotest.test_case "A2 MAC abstraction boundary" `Quick
          test_a2_boundary;
        Alcotest.test_case "A2 default-deny (open, unknown)" `Quick
          test_a2_open_denied;
        Alcotest.test_case "A4 engine access discipline" `Quick
          test_a4_engine;
        Alcotest.test_case "A5 float equality" `Quick test_a5_float_eq;
        Alcotest.test_case "A6 epoch mutation discipline" `Quick
          test_a6_epoch;
        Alcotest.test_case "A6 default-deny (open Dyn)" `Quick
          test_a6_open_denied;
        Alcotest.test_case "hatches are per-family" `Quick
          test_hatches_per_family;
        Alcotest.test_case "allowlist" `Quick test_allowlist;
        Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
        Alcotest.test_case "parse errors are findings" `Quick
          test_parse_error_is_a_finding;
        Alcotest.test_case "stale suppression comments (S1)" `Quick
          test_stale_suppression;
        Alcotest.test_case "stale allowlist entries (S2)" `Quick
          test_stale_allow_entry;
        Alcotest.test_case "real lib/ tree is clean" `Quick test_real_tree;
      ] );
  ]
