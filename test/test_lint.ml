(* The lint family (D-rules): fixture files under lint_fixtures/
   exercise every rule's positive hit, the suppression-comment escape
   hatch, and the allowlist escape hatch. *)

let rules_of findings = List.map (fun f -> f.Analysis.Finding.rule) findings
let lines_of findings = List.map (fun f -> f.Analysis.Finding.line) findings

let check_rules name expected findings =
  Alcotest.(check (list string)) name expected (rules_of findings)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_source ?allow ~file source =
  Analysis.Driver.run_source ~rules:Analysis.Lint.rules ?allow ~file source

let lint_file ?allow path = lint_source ?allow ~file:path (read_file path)

let run_files ?allow ~stale files =
  Analysis.Driver.run_files ~rules:Analysis.Lint.rules ?allow ~stale files

(* --- D1: Hashtbl traversal --------------------------------------------- *)

let test_d1_hit () =
  let fs = lint_file "lint_fixtures/d1_hashtbl.ml" in
  check_rules "two D1 findings" [ "D1"; "D1" ] fs;
  Alcotest.(check (list int)) "on the fold and iter lines" [ 2; 4 ] (lines_of fs)

let test_d1_suppressed () =
  check_rules "same-line and previous-line suppressions hold" []
    (lint_file "lint_fixtures/d1_suppressed.ml")

let test_d1_commutative () =
  (* Dsim.Tbl.iter_commutative is not a raw Hashtbl traversal, so only the
     bare Hashtbl.iter in the fixture fires; its message must advertise
     the commutative escape so suppressors know the sanctioned route. *)
  let fs = lint_file "lint_fixtures/d1_commutative.ml" in
  check_rules "only the raw Hashtbl.iter fires" [ "D1" ] fs;
  Alcotest.(check (list int)) "on the raw call's line" [ 6 ] (lines_of fs);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        "D1 message points at iter_commutative" true
        (Analysis.Paths.find_substring ~sub:"iter_commutative"
           f.Analysis.Finding.msg
        <> None))
    fs

let test_d1_allowlisted () =
  let allow = Analysis.Allow.load "lint_fixtures/fixtures.allow" in
  check_rules "allowlist entry silences the file" []
    (lint_file ~allow "lint_fixtures/d1_allowlisted.ml");
  check_rules "without the allowlist the hit is live" [ "D1" ]
    (lint_file "lint_fixtures/d1_allowlisted.ml")

(* --- D2: ambient Random ------------------------------------------------- *)

let test_d2_hit () =
  check_rules "every Random.* ident flagged" [ "D2"; "D2"; "D2" ]
    (lint_file "lint_fixtures/d2_random.ml")

let test_d2_rng_exempt () =
  (* The same source is legal inside the one sanctioned module. *)
  let source = read_file "lint_fixtures/d2_random.ml" in
  check_rules "lib/dsim/rng.ml may touch Random" []
    (lint_source ~file:"lib/dsim/rng.ml" source)

(* --- D3: wall-clock / ambient reads, scoped to lib/ --------------------- *)

let test_d3_scope () =
  let source = read_file "lint_fixtures/d3_clock.ml" in
  check_rules "flagged under lib/" [ "D3"; "D3" ]
    (lint_source ~file:"lib/dsim/fixture.ml" source);
  check_rules "bench may read the clock" []
    (lint_source ~file:"bench/fixture.ml" source)

(* --- D4: physical equality ---------------------------------------------- *)

let test_d4_hit () =
  let fs = lint_file "lint_fixtures/d4_physeq.ml" in
  check_rules "== and != on non-ints flagged, int sentinel not" [ "D4"; "D4" ]
    fs;
  Alcotest.(check (list int)) "hit lines" [ 2; 4 ] (lines_of fs)

(* --- D5: polymorphic compare in sorts, scoped to lib/ ------------------- *)

let test_d5_scope () =
  let source = read_file "lint_fixtures/d5_polysort.ml" in
  check_rules "bare compare and wrapped compare flagged" [ "D5"; "D5" ]
    (lint_source ~file:"lib/mmb/fixture.ml" source);
  check_rules "covers every lib/ subtree" [ "D5"; "D5" ]
    (lint_source ~file:"lib/graphs/fixture.ml" source);
  check_rules "out of scope under bin/" []
    (lint_source ~file:"bin/fixture.ml" source)

(* --- D6: parallel primitives confined to lib/exec and lib/pdes ----------- *)

let test_d6_scope () =
  let source = read_file "lint_fixtures/d6_domain.ml" in
  check_rules "Domain/Mutex/Atomic flagged under lib/"
    [ "D6"; "D6"; "D6"; "D6" ]
    (lint_source ~file:"lib/mmb/fixture.ml" source);
  check_rules "and under bench/" [ "D6"; "D6"; "D6"; "D6" ]
    (lint_source ~file:"bench/fixture.ml" source);
  check_rules "lib/exec is the sanctioned home" []
    (lint_source ~file:"lib/exec/pool.ml" source);
  check_rules "also when rooted elsewhere" []
    (lint_source ~file:"/abs/repo/lib/exec/pool.ml" source);
  (* PR10: the horizon-parallel engine is the second sanctioned bridge. *)
  check_rules "lib/pdes joins the sanctioned scope" []
    (lint_source ~file:"lib/pdes/engine.ml" source);
  check_rules "also when rooted elsewhere" []
    (lint_source ~file:"/abs/repo/lib/pdes/engine.ml" source);
  (* Domain.DLS is a Domain primitive like any other: every reference
     fires outside the two subsystems, at each DLS path's position. *)
  let dls = read_file "lint_fixtures/r3_dls.ml" in
  let fs = lint_source ~file:"lib/obs/fixture.ml" dls in
  check_rules "DLS new_key, get and set fire outside exec/pdes"
    [ "D6"; "D6"; "D6" ] fs;
  Alcotest.(check (list int)) "on each reference" [ 3; 5; 7 ] (lines_of fs);
  List.iter
    (fun file ->
      check_rules ("DLS is sanctioned under " ^ file) []
        (lint_source ~file dls))
    [
      "lib/exec/fixture.ml";
      "/abs/repo/lib/exec/fixture.ml";
      "lib/pdes/fixture.ml";
    ]

(* --- Cross-rule: clean fixture, escape hatches for every rule ------------ *)

let test_clean () =
  check_rules "clean fixture has zero findings" []
    (lint_file "lint_fixtures/clean.ml")

(* (rule, minimal offending source, path it must be linted under) *)
let per_rule_hits =
  [
    ("D1", "let f t = Hashtbl.iter (fun _ _ -> ()) t", "lib/mmb/x.ml");
    ("D2", "let f () = Random.int 3", "lib/mmb/x.ml");
    ("D3", "let f () = Sys.time ()", "lib/mmb/x.ml");
    ("D4", "let f a b = a == b", "lib/mmb/x.ml");
    ("D5", "let f l = List.sort compare l", "lib/mmb/x.ml");
    ("D6", "let f () = Atomic.make 0", "lib/mmb/x.ml");
  ]

let test_every_rule_suppressible () =
  List.iter
    (fun (rule, src, file) ->
      check_rules (rule ^ " fires bare") [ rule ]
        (lint_source ~file src);
      let suppressed =
        Printf.sprintf "(* analysis: allow %s *)\n%s" rule src
      in
      check_rules (rule ^ " suppressed by comment") []
        (lint_source ~file suppressed);
      check_rules (rule ^ " silenced by allowlist") []
        (lint_source ~file
           ~allow:(Analysis.Allow.parse (rule ^ " " ^ file))
           src);
      check_rules (rule ^ " not silenced by another rule's allow entry")
        [ rule ]
        (lint_source ~file ~allow:(Analysis.Allow.parse ("D9 " ^ file)) src))
    per_rule_hits

let test_parse_error_is_a_finding () =
  check_rules "unparseable source yields E0" [ "E0" ]
    (lint_source ~file:"lib/mmb/x.ml" "let = =")

(* --- Allowlist path anchoring -------------------------------------------- *)

let test_suffix_anchoring () =
  let yes suffix file =
    Alcotest.(check bool)
      (Printf.sprintf "%s matches %s" suffix file)
      true
      (Analysis.Paths.has_suffix ~suffix file)
  and no suffix file =
    Alcotest.(check bool)
      (Printf.sprintf "%s does not match %s" suffix file)
      false
      (Analysis.Paths.has_suffix ~suffix file)
  in
  yes "cache.ml" "cache.ml";
  yes "cache.ml" "lib/exec/cache.ml";
  yes "cache.ml" "/root/repo/lib/exec/cache.ml";
  no "cache.ml" "lib/exec/xcache.ml";
  no "cache.ml" "lib/exec/cache.mli";
  yes "exec/cache.ml" "lib/exec/cache.ml";
  no "exec/cache.ml" "lib/notexec/cache.ml";
  no "lib/exec/cache.ml" "fib/exec/cache.ml"

let test_allow_anchoring_end_to_end () =
  let source = "let f t = Hashtbl.iter (fun _ _ -> ()) t" in
  check_rules "suffix entry anchored at a component silences" []
    (lint_source ~file:"lib/exec/cache.ml"
       ~allow:(Analysis.Allow.parse "D1 exec/cache.ml")
       source);
  check_rules "a colliding basename in another dir stays live" [ "D1" ]
    (lint_source ~file:"lib/notexec/cache.ml"
       ~allow:(Analysis.Allow.parse "D1 exec/cache.ml")
       source);
  check_rules "a longer basename stays live too" [ "D1" ]
    (lint_source ~file:"lib/exec/xcache.ml"
       ~allow:(Analysis.Allow.parse "D1 cache.ml")
       source)

(* --- Stale escape hatches ------------------------------------------------ *)

let test_stale_suppression_comment () =
  let fs = run_files ~stale:true [ "lint_fixtures/stale_suppress.ml" ] in
  check_rules "a comment that suppresses nothing is reported" [ "S1" ] fs;
  Alcotest.(check (list int)) "at the comment's line" [ 2 ] (lines_of fs);
  check_rules "stale reporting is opt-out" []
    (run_files ~stale:false [ "lint_fixtures/stale_suppress.ml" ])

let test_stale_allow_entry () =
  let fs =
    run_files ~stale:true
      ~allow:(Analysis.Allow.parse "D1 no/such/file.ml")
      [ "lint_fixtures/clean.ml" ]
  in
  check_rules "an entry that suppresses nothing is reported" [ "S2" ] fs;
  let live =
    run_files ~stale:true
      ~allow:(Analysis.Allow.parse "D1 lint_fixtures/d1_allowlisted.ml")
      [ "lint_fixtures/d1_allowlisted.ml" ]
  in
  check_rules "a live entry is not" [] live;
  check_rules "another family's dead entry is not this family's to report"
    []
    (run_files ~stale:true
       ~allow:(Analysis.Allow.parse "H1 no/such/file.ml")
       [ "lint_fixtures/clean.ml" ])

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "D1 Hashtbl traversal" `Quick test_d1_hit;
        Alcotest.test_case "D1 suppression comments" `Quick test_d1_suppressed;
        Alcotest.test_case "D1 commutative-traversal escape" `Quick
          test_d1_commutative;
        Alcotest.test_case "D1 allowlist" `Quick test_d1_allowlisted;
        Alcotest.test_case "D2 ambient Random" `Quick test_d2_hit;
        Alcotest.test_case "D2 rng.ml exemption" `Quick test_d2_rng_exempt;
        Alcotest.test_case "D3 clock scoped to lib/" `Quick test_d3_scope;
        Alcotest.test_case "D4 physical equality" `Quick test_d4_hit;
        Alcotest.test_case "D5 polymorphic sort" `Quick test_d5_scope;
        Alcotest.test_case "D6 parallel primitives confined to lib/exec"
          `Quick test_d6_scope;
        Alcotest.test_case "clean fixture" `Quick test_clean;
        Alcotest.test_case "suppression + allowlist for every rule" `Quick
          test_every_rule_suppressible;
        Alcotest.test_case "parse errors are findings" `Quick
          test_parse_error_is_a_finding;
        Alcotest.test_case "allowlist suffix anchoring" `Quick
          test_suffix_anchoring;
        Alcotest.test_case "allowlist anchoring end-to-end" `Quick
          test_allow_anchoring_end_to_end;
        Alcotest.test_case "stale suppression comments (S1)" `Quick
          test_stale_suppression_comment;
        Alcotest.test_case "stale allowlist entries (S2)" `Quick
          test_stale_allow_entry;
      ] );
  ]
