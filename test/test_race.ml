(* The race family (R-rules): fixture files under lint_fixtures/
   exercise every R-rule's positive hit and its confined counterpart
   (DLS / Atomic / registry / forced-lazy / init-scratch); a3_topstate.ml
   pins R1/R4 as the home of top-level state in every lib/ unit;
   reachability tests drive R1/R4's bench/ and bin/ scope; and a
   real-tree scan asserts the shipped sources stay clean exactly as
   `dune build @race` runs them. *)

let rules_of findings = List.map (fun f -> f.Analysis.Finding.rule) findings
let lines_of findings = List.map (fun f -> f.Analysis.Finding.line) findings

let check_rules name expected findings =
  Alcotest.(check (list string)) name expected (rules_of findings)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let race_source ?allow ?(reach = Analysis.Reach.assume_all) ~file source =
  Analysis.Driver.run_source ~rules:(Analysis.Race.rules ~reach) ?allow ~file
    source

(* Pose a fixture file at a path, so rule scopes see it "living" there. *)
let posed fixture file = race_source ~file (read_file fixture)

(* --- R1: shared-unprotected top-level state ------------------------------ *)

let test_r1_classes () =
  let fs = posed "lint_fixtures/r1_shared.ml" "lib/mmb/fixture.ml" in
  check_rules
    "Hashtbl, ref, array, mutable record fire; Atomic and DLS don't \
     (outside lib/exec and lib/pdes both are the lint family's D6)"
    [ "R1"; "R1"; "R1"; "R1" ] fs;
  Alcotest.(check (list int))
    "on the allocation lines" [ 4; 6; 8; 18 ] (lines_of fs);
  check_rules "shared state inside lib/exec is still shared"
    [ "R1"; "R1"; "R1"; "R1" ]
    (posed "lint_fixtures/r1_shared.ml" "lib/exec/fixture.ml");
  check_rules "a declared registry confines everything" []
    (posed "lint_fixtures/r1_shared.ml" "lib/obs/global.ml");
  check_rules "out of scope outside lib/bench/bin" []
    (posed "lint_fixtures/r1_shared.ml" "examples/fixture.ml")

(* Top-level state in every lib/ unit is R1's and R4's, at the positions
   the fixture's allocations start. *)
let test_a3_fixture () =
  let fs = posed "lint_fixtures/a3_topstate.ml" "lib/mmb/fixture.ml" in
  check_rules "ref, Hashtbl.create, nested Buffer.create, unforced lazy"
    [ "R1"; "R1"; "R1"; "R4" ] fs;
  Alcotest.(check (list (pair int int)))
    "at each allocation; function-local state exempt"
    [ (3, 14); (5, 12); (7, 15); (14, 17) ]
    (List.map (fun f -> Analysis.Finding.(f.line, f.col)) fs);
  check_rules "a registry confines the state but not the raced lazy"
    [ "R4" ]
    (posed "lint_fixtures/a3_topstate.ml" "lib/obs/global.ml");
  check_rules "state in a nested module is top-level too" [ "R1" ]
    (race_source ~file:"lib/mmb/fixture.ml"
       "module Cache = struct\n  let table = Hashtbl.create 8\nend")

(* --- R2: mutable captures crossing the spawn boundary -------------------- *)

let test_r2_captures () =
  let fs = posed "lint_fixtures/r2_capture.ml" "lib/mmb/fixture.ml" in
  check_rules "Hashtbl capture via spawn, ref capture via Pool.run"
    [ "R2"; "R2" ] fs;
  Alcotest.(check (list int)) "at the two call sites" [ 6; 11 ] (lines_of fs);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        "message names the captured binding" true
        (Analysis.Paths.find_substring ~sub:"shared"
           f.Analysis.Finding.msg
         <> None
        || Analysis.Paths.find_substring ~sub:"acc" f.Analysis.Finding.msg
           <> None))
    fs;
  (* The Atomic-only closure is the sanctioned counterpart: silent. *)
  check_rules "R2 applies inside lib/exec too (campaign's own hazard)"
    [ "R2"; "R2" ]
    (posed "lint_fixtures/r2_capture.ml" "lib/exec/fixture.ml");
  check_rules
    "and inside lib/pdes (the engine earns Domain access, not a waiver)"
    [ "R2"; "R2" ]
    (posed "lint_fixtures/r2_capture.ml" "lib/pdes/fixture.ml")

(* --- R4: lazies and memo closures ---------------------------------------- *)

let test_r4_lazy_memo () =
  let fs = posed "lint_fixtures/r4_lazy.ml" "lib/mmb/fixture.ml" in
  check_rules
    "unforced lazy and memo closure fire; forced lazy and init-scratch \
     closure stay silent"
    [ "R4"; "R4" ] fs;
  Alcotest.(check (list int))
    "at the lazy and at the captured allocation" [ 5; 12 ] (lines_of fs);
  check_rules "out of scope outside lib/bench/bin" []
    (posed "lint_fixtures/r4_lazy.ml" "examples/fixture.ml")

(* --- Reachability -------------------------------------------------------- *)

let lib_files () =
  Analysis.Cli.collect_files ~exts:[ ".ml" ] [ "../lib" ]

let test_reach_units () =
  let u = Analysis.Reach.unit_of_path in
  Alcotest.(check (option string)) "lib path" (Some "exec/Pool")
    (u "lib/exec/pool.ml");
  Alcotest.(check (option string)) "absolute lib path" (Some "mmb/Bmmb")
    (u "/abs/repo/lib/mmb/bmmb.ml");
  Alcotest.(check (option string)) "bench pseudo-lib" (Some "bench/Main")
    (u "bench/main.ml");
  Alcotest.(check (option string)) "outside the tree shape" None
    (u "lint_fixtures/r1_shared.ml")

let test_reach_real_tree () =
  let reach = Analysis.Race.reach_of_files (lib_files ()) in
  let reachable file = Analysis.Reach.worker_reachable reach ~file in
  Alcotest.(check bool) "the pool itself" true
    (reachable "../lib/exec/pool.ml");
  Alcotest.(check bool) "the registry the pool redirects" true
    (reachable "../lib/obs/global.ml");
  Alcotest.(check bool) "the engine below it" true
    (reachable "../lib/dsim/sim.ml");
  Alcotest.(check bool) "the analyzer library never runs on workers" false
    (reachable "../lib/analysis/lint.ml");
  Alcotest.(check bool) "the race family itself included" false
    (reachable "../lib/analysis/race.ml")

(* In bench/ and bin/, R1 is gated on the graph: the same shared table
   fires on a unit that hands closures to the pool and stays silent on
   a driver-only unit.  Every lib/ unit is in scope regardless. *)
let test_r1_reachability_gate () =
  let parse src = Parse.implementation (Lexing.from_string src) in
  let reach =
    Analysis.Reach.compute
      [
        ("bench/driver.ml", parse "let go tasks f = Exec.Pool.run ~tasks f");
        ("bench/report.ml", parse "let title = \"report\"");
        ("lib/analysis/lint.ml", parse "let rules = []");
      ]
  in
  let src = "let cache = Hashtbl.create 16" in
  check_rules "fires on a worker-reachable bench unit" [ "R1" ]
    (race_source ~reach ~file:"bench/driver.ml" src);
  check_rules "silent on a driver-only bench unit" []
    (race_source ~reach ~file:"bench/report.ml" src);
  check_rules "every lib/ unit is in scope, reachable or not" [ "R1" ]
    (race_source ~reach ~file:"lib/analysis/lint.ml" src);
  check_rules "the conservative default assumes reachability" [ "R1" ]
    (race_source ~file:"bench/report.ml" src)

(* --- The inventory ------------------------------------------------------- *)

let test_inventory_real_tree () =
  let inv = Analysis.Race.inventory (lib_files ()) in
  let find file name =
    List.find_map
      (fun (f, reachable, items) ->
        if Analysis.Paths.has_suffix ~suffix:file f then
          List.find_map
            (fun (i : Analysis.State.item) ->
              if String.equal i.Analysis.State.i_name name then
                Some
                  ( reachable,
                    Analysis.State.cls_to_string i.Analysis.State.i_cls )
              else None)
            items
        else None)
      inv
  in
  Alcotest.(check (option (pair bool string)))
    "the pool's DLS key" (Some (true, "domain-local"))
    (find "lib/exec/pool.ml" "obs_key");
  Alcotest.(check (option (pair bool string)))
    "the observability registry" (Some (true, "registry-confined"))
    (find "lib/obs/global.ml" "main_registry");
  (* The load-bearing assertion: no shared-unprotected item anywhere. *)
  List.iter
    (fun (file, _, items) ->
      List.iter
        (fun (i : Analysis.State.item) ->
          if i.Analysis.State.i_cls = Analysis.State.Shared then
            Alcotest.failf "shared-unprotected state %s in %s"
              i.Analysis.State.i_name file)
        items)
    inv

(* --- Escape hatches ------------------------------------------------------ *)

let test_hatches_per_family () =
  let file = "lib/mmb/fixture.ml" in
  let src id =
    Printf.sprintf "(* analysis: allow %s *)\nlet counter = ref 0" id
  in
  check_rules "a hatch naming R1 suppresses" [] (race_source ~file (src "R1"));
  check_rules "a hatch naming another family's id does not" [ "R1" ]
    (race_source ~file (src "D6"));
  check_rules "nor does a hatch naming an R-id with no rule" [ "R1" ]
    (race_source ~file (src "R3"))

let test_allowlist () =
  let file = "lib/mmb/fixture.ml" in
  let src = "let counter = ref 0" in
  check_rules "allowlist entry silences the file" []
    (race_source ~file ~allow:(Analysis.Allow.parse ("R1 " ^ file)) src);
  check_rules "another rule's entry does not" [ "R1" ]
    (race_source ~file ~allow:(Analysis.Allow.parse ("R2 " ^ file)) src)

let test_stale_hatches () =
  let run allow =
    Analysis.Driver.run_files
      ~rules:(Analysis.Race.rules ~reach:Analysis.Reach.assume_all)
      ~allow:(Analysis.Allow.parse allow) ~stale:true
      [ "lint_fixtures/clean.ml" ]
  in
  check_rules "an entry suppressing nothing is reported" [ "S2" ]
    (run "R1 nowhere/such_file.ml");
  check_rules "another family's dead entry is left to that family" []
    (run "A4 nowhere/such_file.ml")

(* --- The shared mmb-analysis/1 envelope (every family) ------------------- *)

let member_string json key =
  match Dsim.Json.member_opt json key with
  | Some (Dsim.Json.String s) -> Some s
  | _ -> None

let test_envelope () =
  List.iter
    (fun (tool, findings) ->
      let text = Analysis.Report.to_json ~tool ~files:1 findings in
      match Dsim.Json.parse text with
      | Error e -> Alcotest.failf "%s envelope does not parse: %s" tool e
      | Ok json ->
          Alcotest.(check (option string))
            (tool ^ " schema") (Some "mmb-analysis/1")
            (member_string json "schema");
          Alcotest.(check (option string))
            (tool ^ " tool field") (Some tool) (member_string json "tool");
          Alcotest.(check (result int string))
            (tool ^ " version")
            (Ok Analysis.Report.version)
            (Dsim.Json.member_int json "version" ~default:0);
          match Dsim.Json.member_opt json "findings" with
          | Some (Dsim.Json.List fs) ->
              List.iter
                (fun f ->
                  List.iter
                    (fun key ->
                      Alcotest.(check bool)
                        (tool ^ " finding has " ^ key)
                        true
                        (Dsim.Json.member_opt f key <> None))
                    [ "rule"; "file"; "line"; "col"; "msg" ])
                fs
          | _ -> Alcotest.failf "%s envelope has no findings array" tool)
    (let run rules src =
       Analysis.Driver.run_source ~rules ~file:"lib/mmb/x.ml" src
     in
     [
       ("mmb_analyze lint", run Analysis.Lint.rules "let f () = Random.int 3");
       ( "mmb_analyze check",
         run Analysis.Check.rules "let c = Obs.Metrics.create ()" );
       ("mmb_analyze race", race_source ~file:"lib/mmb/x.ml" "let c = ref 0");
     ])

(* --- The real tree ------------------------------------------------------- *)

(* The same scan `dune build @race` performs, minus bin/bench (the test
   binary sees only lib/ staged next to it): the shipped sources must be
   clean under the shipped allowlist, with no stale hatches. *)
let test_real_tree () =
  let files = lib_files () in
  Alcotest.(check bool)
    (Printf.sprintf "scanned a substantial tree (%d files)" (List.length files))
    true
    (List.length files > 50);
  let allow = Analysis.Allow.load "../analysis.allow" in
  let fs =
    Analysis.Driver.run_files
      ~rules:(Analysis.Race.rules ~reach:(Analysis.Race.reach_of_files files))
      ~allow ~stale:true files
  in
  Alcotest.(check (list string)) "lib/ is domain-safety-clean" []
    (List.map Analysis.Finding.to_string fs)

let suite =
  [
    ( "race",
      [
        Alcotest.test_case "R1 lattice classes" `Quick test_r1_classes;
        Alcotest.test_case "A3 fixture fires as R1/R4" `Quick test_a3_fixture;
        Alcotest.test_case "R2 spawn-boundary captures" `Quick
          test_r2_captures;
        Alcotest.test_case "R4 lazies and memo closures" `Quick
          test_r4_lazy_memo;
        Alcotest.test_case "unit resolution" `Quick test_reach_units;
        Alcotest.test_case "reachability over the real tree" `Quick
          test_reach_real_tree;
        Alcotest.test_case "R1 gated on reachability" `Quick
          test_r1_reachability_gate;
        Alcotest.test_case "inventory over the real tree" `Quick
          test_inventory_real_tree;
        Alcotest.test_case "hatches are per-family" `Quick
          test_hatches_per_family;
        Alcotest.test_case "allowlist" `Quick test_allowlist;
        Alcotest.test_case "stale allowlist entries (S2)" `Quick
          test_stale_hatches;
        Alcotest.test_case "mmb-analysis/1 envelope across tools" `Quick
          test_envelope;
        Alcotest.test_case "real lib/ tree is clean" `Quick test_real_tree;
      ] );
  ]
