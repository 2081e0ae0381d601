(* The hot family (H-rules): fixture files under lint_fixtures/ exercise
   each H-rule's positive hit exactly once and a disciplined
   counterpart with zero findings; scope tests pin H1/H2/H4 to the hot
   set (by path and by [@@@mmb.hot]) and H3 to all of lib/; hatch
   tests pin the suppression comment, H3's refusal of it, and the
   allowlist; front-end tests cover E0 on ill-typed source, the skip
   diagnostics for missing .cmt trees, the mmb-analysis/1 envelope's
   skips array, and the per-function inventory classification; and a
   real-tree scan asserts the shipped lib/ sources stay clean exactly
   as `dune build @hot` runs them. *)

let rules_of findings = List.map (fun f -> f.Analysis.Finding.rule) findings
let lines_of findings = List.map (fun f -> f.Analysis.Finding.line) findings

let check_rules name expected findings =
  Alcotest.(check (list string)) name expected (rules_of findings)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let hot_source ?allow ~file source =
  Analysis.Typed.run_source ~rules:Analysis.Hot.rules ?allow ~file source

(* Pose a fixture file at a path, so rule scopes see it "living" there. *)
let posed fixture file = hot_source ~file (read_file fixture)

let msg_mentions sub f =
  Analysis.Paths.find_substring ~sub f.Analysis.Finding.msg <> None

(* --- H1: polymorphic comparison at boxed types --------------------------- *)

let test_h1_comparator () =
  let fs = posed "lint_fixtures/h1_hot.ml" "lib/dsim/fixture.ml" in
  check_rules "first-class [compare] at a tuple type fires" [ "H1" ] fs;
  Alcotest.(check (list int)) "at the sort call" [ 5 ] (lines_of fs);
  List.iter
    (fun f ->
      Alcotest.(check bool) "message names the operator and the type" true
        (msg_mentions "compare" f && msg_mentions "int * int" f))
    fs;
  check_rules "out of scope off the hot set" []
    (posed "lint_fixtures/h1_hot.ml" "lib/obs/fixture.ml")

let test_h1_specialization_exemption () =
  (* Direct full applications at float/string are compiled to
     monomorphic comparisons (Translcore) — H1 must stay quiet — but
     the same operator passed as a comparator still fires. *)
  let file = "lib/dsim/fixture.ml" in
  check_rules "direct string = is specialized" []
    (hot_source ~file "let eq (a : string) (b : string) = a = b");
  check_rules "direct float compare is specialized" []
    (hot_source ~file
       "let cmp (a : float) (b : float) = compare a b");
  check_rules "first-class compare at float still fires" [ "H1" ]
    (hot_source ~file
       "let sortf (xs : float list) = List.sort compare xs");
  check_rules "Hashtbl.hash is never specialized" [ "H1" ]
    (hot_source ~file "let h (s : string) = Hashtbl.hash s")

(* --- H2: allocation in hot functions ------------------------------------- *)

let test_h2_ref_capture () =
  let fs = posed "lint_fixtures/h2_hot.ml" "lib/graphs/fixture.ml" in
  check_rules "ref-capturing iteration closure fires" [ "H2" ] fs;
  Alcotest.(check (list int)) "at the closure literal" [ 6 ] (lines_of fs);
  List.iter
    (fun f ->
      Alcotest.(check bool) "message names the captured cell" true
        (msg_mentions "(n)" f))
    fs;
  check_rules "out of scope off the hot set" []
    (posed "lint_fixtures/h2_hot.ml" "lib/obs/fixture.ml")

let test_h2_alloc_ok_hatch () =
  let file = "lib/amac/fixture.ml" in
  let src =
    "let count (a : int array) =\n\
    \  let n = ref 0 in\n\
    \  Array.iter (fun x -> if x > 0 then incr n) a;\n\
    \  !n\n\
     [@@mmb.alloc_ok \"fixture: justified\"]\n"
  in
  check_rules "a binding-level [@@mmb.alloc_ok] silences H2" []
    (hot_source ~file src)

(* --- H3: unsafe escapes anywhere in lib/ --------------------------------- *)

let test_h3_scope_and_hatches () =
  let fs = posed "lint_fixtures/h3_hot.ml" "lib/obs/fixture.ml" in
  check_rules "Obj.repr fires even off the hot set" [ "H3" ] fs;
  check_rules "and on it" [ "H3" ]
    (posed "lint_fixtures/h3_hot.ml" "lib/dsim/fixture.ml");
  check_rules "but not outside lib/" []
    (posed "lint_fixtures/h3_hot.ml" "bench/fixture.ml");
  (* H3 is allowlist-only: the suppression comment that silences every
     other rule is ignored, the allow entry works. *)
  let src =
    "(* analysis: allow H3 *)\nlet erase (x : int list) = Obj.repr x"
  in
  check_rules "suppression comment is refused" [ "H3" ]
    (hot_source ~file:"lib/obs/fixture.ml" src);
  check_rules "allowlist entry is honoured" []
    (hot_source ~file:"lib/obs/fixture.ml"
       ~allow:(Analysis.Allow.parse "H3 lib/obs/fixture.ml")
       src)

(* --- H4: unguarded formatting on the hot set ----------------------------- *)

let test_h4_unguarded_format () =
  let fs = posed "lint_fixtures/h4_hot.ml" "lib/dyn/fixture.ml" in
  check_rules "unguarded Printf.sprintf fires" [ "H4" ] fs;
  Alcotest.(check (list int)) "at the format call" [ 3 ] (lines_of fs);
  check_rules "out of scope off the hot set" []
    (posed "lint_fixtures/h4_hot.ml" "lib/obs/fixture.ml")

(* --- The disciplined counterpart ----------------------------------------- *)

let test_clean_fixture () =
  check_rules
    "guarded, cold-prefixed, hatched and specialized forms are all quiet" []
    (posed "lint_fixtures/hot_clean.ml" "lib/dsim/fixture.ml")

(* --- Hot-set membership by attribute ------------------------------------- *)

let test_hot_attribute_opt_in () =
  let body = "let sort_pairs (xs : (int * int) list) = List.sort compare xs" in
  check_rules "off the hot set, no attribute: quiet" []
    (hot_source ~file:"lib/obs/fixture.ml" body);
  check_rules "[@@@mmb.hot] opts the module in" [ "H1" ]
    (hot_source ~file:"lib/obs/fixture.ml"
       ("[@@@mmb.hot]\n" ^ body))

(* --- Suppression comments ------------------------------------------------ *)

let test_suppression_marker () =
  let src =
    "let sort_pairs (xs : (int * int) list) =\n\
    \  (* analysis: allow H1 *)\n\
    \  List.sort compare xs"
  in
  check_rules "a hatch naming H1 suppresses" []
    (hot_source ~file:"lib/dsim/fixture.ml" src);
  let src' =
    "let sort_pairs (xs : (int * int) list) =\n\
    \  (* analysis: allow D5 *)\n\
    \  List.sort compare xs"
  in
  check_rules "a hatch naming another family's id does not" [ "H1" ]
    (hot_source ~file:"lib/dsim/fixture.ml" src')

(* --- Front ends ---------------------------------------------------------- *)

let test_ill_typed_is_e0 () =
  check_rules "ill-typed source is the standard E0" [ "E0" ]
    (hot_source ~file:"lib/dsim/fixture.ml" "let x : int = \"s\"");
  check_rules "unparseable source too" [ "E0" ]
    (hot_source ~file:"lib/dsim/fixture.ml" "let let let")

let test_missing_cmt_is_a_skip () =
  (* A root with no .cmt files: every requested file becomes a skip
     diagnostic, never a finding or a crash. *)
  let fs, skips =
    Analysis.Typed.run_files ~rules:Analysis.Hot.rules ~root:"lint_fixtures"
      [ "lib/dsim/sim.ml" ]
  in
  check_rules "no findings" [] fs;
  match skips with
  | [ (file, reason) ] ->
      Alcotest.(check string) "names the file" "lib/dsim/sim.ml" file;
      Alcotest.(check bool) "explains the cause" true
        (Analysis.Paths.find_substring ~sub:"no .cmt" reason <> None)
  | skips -> Alcotest.failf "expected one skip, got %d" (List.length skips)

let test_envelope_skips () =
  let findings =
    hot_source ~file:"lib/dsim/fixture.ml"
      (read_file "lint_fixtures/h4_hot.ml")
  in
  let text =
    Analysis.Report.to_json ~tool:"mmb_analyze hot" ~files:2
      ~skips:[ ("lib/dsim/other.ml", "no .cmt under .") ]
      findings
  in
  match Dsim.Json.parse text with
  | Error e -> Alcotest.failf "envelope does not parse: %s" e
  | Ok json -> (
      (match Dsim.Json.member_opt json "schema" with
      | Some (Dsim.Json.String s) ->
          Alcotest.(check string) "shared schema" "mmb-analysis/1" s
      | _ -> Alcotest.fail "no schema field");
      match Dsim.Json.member_opt json "skips" with
      | Some (Dsim.Json.List [ skip ]) ->
          List.iter
            (fun key ->
              Alcotest.(check bool) ("skip has " ^ key) true
                (Dsim.Json.member_opt skip key <> None))
            [ "file"; "reason" ]
      | _ -> Alcotest.fail "envelope has no one-element skips array")

(* --- Inventory ----------------------------------------------------------- *)

let test_inventory_classification () =
  let file = "lib/dsim/fixture.ml" in
  let src =
    "let step (a : int array) (i : int) = a.(i) + 1\n\
     let build (n : int) = Array.init n (fun i -> i)\n"
  in
  let trees =
    [ { Analysis.Typed.t_file = file; t_str = Analysis.Typed.of_source ~file src } ]
  in
  (match Analysis.Alloc.of_trees trees [ file ] with
  | [ e ] ->
      Alcotest.(check bool) "hot by path" true (e.Analysis.Alloc.e_hot = `Path);
      Alcotest.(check (list string))
        "both functions inventoried" [ "step"; "build" ]
        (List.map (fun f -> f.Analysis.Alloc.f_name) e.e_funcs);
      (match e.e_funcs with
      | [ step; build ] ->
          Alcotest.(check bool) "step is zero-alloc" true
            (Analysis.Alloc.zero_alloc step.f_counts);
          Alcotest.(check int) "build allocates one closure" 1
            build.f_counts.Analysis.Alloc.closures
      | _ -> Alcotest.fail "expected two functions")
  | entries -> Alcotest.failf "expected one entry, got %d" (List.length entries));
  Alcotest.(check int) "a non-hot module is not inventoried" 0
    (List.length
       (Analysis.Alloc.of_trees
          [
            {
              Analysis.Typed.t_file = "lib/obs/fixture.ml";
              t_str = Analysis.Typed.of_source ~file:"lib/obs/fixture.ml" src;
            };
          ]
          [ "lib/obs/fixture.ml" ]))

(* --- The real tree ------------------------------------------------------- *)

let lib_files () = Analysis.Cli.collect_files ~exts:[ ".ml" ] [ "../lib" ]

(* The same scan `dune build @hot` performs.  The test binary runs from
   the build directory, so the library .cmt trees live one level up; if
   the build staged no cmts (cold or sandboxed run) every file degrades
   to a skip and the scan is vacuously clean — the @hot alias, which
   forces the library builds, is the authoritative gate. *)
let test_real_tree () =
  let files = lib_files () in
  let allow = Analysis.Allow.load "../analysis.allow" in
  let fs, skips =
    Analysis.Typed.run_files ~rules:Analysis.Hot.rules ~allow ~root:".." files
  in
  Alcotest.(check (list string)) "lib/ is hot-clean" []
    (List.map Analysis.Finding.to_string fs);
  if List.length skips = 0 then
    Alcotest.(check bool)
      (Printf.sprintf "scanned a substantial tree (%d files)"
         (List.length files))
      true
      (List.length files > 50)

let suite =
  [
    ( "hot",
      [
        Alcotest.test_case "H1 first-class comparator" `Quick
          test_h1_comparator;
        Alcotest.test_case "H1 specialization exemption" `Quick
          test_h1_specialization_exemption;
        Alcotest.test_case "H2 ref-capturing closure" `Quick
          test_h2_ref_capture;
        Alcotest.test_case "H2 [@@mmb.alloc_ok] hatch" `Quick
          test_h2_alloc_ok_hatch;
        Alcotest.test_case "H3 scope and hatches" `Quick
          test_h3_scope_and_hatches;
        Alcotest.test_case "H4 unguarded formatting" `Quick
          test_h4_unguarded_format;
        Alcotest.test_case "clean fixture is quiet" `Quick test_clean_fixture;
        Alcotest.test_case "[@@@mmb.hot] opts a module in" `Quick
          test_hot_attribute_opt_in;
        Alcotest.test_case "suppression marker" `Quick test_suppression_marker;
        Alcotest.test_case "ill-typed source is E0" `Quick
          test_ill_typed_is_e0;
        Alcotest.test_case "missing .cmt degrades to a skip" `Quick
          test_missing_cmt_is_a_skip;
        Alcotest.test_case "envelope carries the skips array" `Quick
          test_envelope_skips;
        Alcotest.test_case "inventory classification" `Quick
          test_inventory_classification;
        Alcotest.test_case "real lib/ tree is hot-clean" `Quick
          test_real_tree;
      ] );
  ]
