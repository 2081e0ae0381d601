(* The JSON parser and the config-driven scenario runner. *)

(* --- Json ------------------------------------------------------------------ *)

let test_json_values () =
  let check_parse input expected =
    match Dsim.Json.parse input with
    | Ok v -> Alcotest.(check bool) input true (v = expected)
    | Error e -> Alcotest.failf "%s: %s" input e
  in
  check_parse "null" Dsim.Json.Null;
  check_parse "true" (Dsim.Json.Bool true);
  check_parse "-12.5e1" (Dsim.Json.Number (-125.));
  check_parse {|"a\nb\"c"|} (Dsim.Json.String "a\nb\"c");
  check_parse {|"A"|} (Dsim.Json.String "A");
  check_parse "[1, 2, 3]"
    (Dsim.Json.List
       [ Dsim.Json.Number 1.; Dsim.Json.Number 2.; Dsim.Json.Number 3. ]);
  check_parse {| {"a": [true, null], "b": {"c": 0}} |}
    (Dsim.Json.Obj
       [
         ("a", Dsim.Json.List [ Dsim.Json.Bool true; Dsim.Json.Null ]);
         ("b", Dsim.Json.Obj [ ("c", Dsim.Json.Number 0.) ]);
       ]);
  check_parse "[]" (Dsim.Json.List []);
  check_parse "{}" (Dsim.Json.Obj [])

let test_json_rejects () =
  List.iter
    (fun input ->
      match Dsim.Json.parse input with
      | Ok _ -> Alcotest.failf "accepted %S" input
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  match Dsim.Json.parse {|{"n": 5, "name": "x", "flag": true}|} with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check (result int string)) "int" (Ok 5)
        (Result.bind (Dsim.Json.member v "n") Dsim.Json.to_int);
      Alcotest.(check (result string string)) "default hit" (Ok "x")
        (Dsim.Json.member_str v "name" ~default:"y");
      Alcotest.(check (result string string)) "default miss" (Ok "y")
        (Dsim.Json.member_str v "missing" ~default:"y");
      Alcotest.(check bool) "missing member errors" true
        (Result.is_error (Dsim.Json.member v "nope"));
      (* An integral number outside OCaml's int range is refused, not
         wrapped round or truncated. *)
      List.iter
        (fun (x, expected) ->
          Alcotest.(check (result int string))
            (Printf.sprintf "%.17g" x) expected
            (Dsim.Json.to_int (Dsim.Json.Number x)))
        [
          (1e20, Error "integer out of range");
          (4611686018427387904., Error "integer out of range");
          (-4611686018427387904., Ok min_int);
        ]

let prop_json_roundtrip =
  let rec gen_value depth =
    QCheck.Gen.(
      if depth = 0 then
        oneof
          [
            return Dsim.Json.Null;
            map (fun b -> Dsim.Json.Bool b) bool;
            map (fun i -> Dsim.Json.Number (float_of_int i)) small_int;
            map
              (fun f -> Dsim.Json.Number f)
              (oneofl [ Float.infinity; Float.neg_infinity; Float.nan ]);
            map (fun s -> Dsim.Json.String s) (string_size (int_bound 8));
          ]
      else
        frequency
          [
            (3, gen_value 0);
            ( 1,
              map
                (fun l -> Dsim.Json.List l)
                (list_size (int_bound 4) (gen_value (depth - 1))) );
            ( 1,
              map
                (fun kvs ->
                  (* object keys must be distinct for round-tripping *)
                  let _, uniq =
                    List.fold_left
                      (fun (seen, acc) (k, v) ->
                        if List.mem k seen then (seen, acc)
                        else (k :: seen, (k, v) :: acc))
                      ([], []) kvs
                  in
                  Dsim.Json.Obj (List.rev uniq))
                (list_size (int_bound 4)
                   (pair (string_size (int_bound 6)) (gen_value (depth - 1))))
            );
          ])
  in
  (* What a value reads back as: JSON has no non-finite number, so one
     prints as null. *)
  let rec read_back = function
    | Dsim.Json.Number f when not (Float.is_finite f) -> Dsim.Json.Null
    | Dsim.Json.List l -> Dsim.Json.List (List.map read_back l)
    | Dsim.Json.Obj kvs ->
        Dsim.Json.Obj (List.map (fun (k, v) -> (k, read_back v)) kvs)
    | v -> v
  in
  QCheck.Test.make ~name:"JSON print/parse round-trips" ~count:300
    (QCheck.make (gen_value 3))
    (fun v ->
      match Dsim.Json.parse (Dsim.Json.to_string v) with
      | Ok v' -> read_back v = v'
      | Error _ -> false)

(* --- Scenario ---------------------------------------------------------------- *)

let test_scenario_defaults () =
  match Mmb.Scenario.of_string "{}" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      Alcotest.(check bool) "default topology" true
        (spec.Mmb.Scenario.topology = `Line);
      Alcotest.(check int) "default n" 30 spec.Mmb.Scenario.n;
      Alcotest.(check int) "default repeat" 1 spec.Mmb.Scenario.repeat

let test_scenario_rejects_bad_config () =
  List.iter
    (fun cfg ->
      match Mmb.Scenario.of_string cfg with
      | Ok _ -> Alcotest.failf "accepted %s" cfg
      | Error _ -> ())
    [
      {|{"protocol": "quantum"}|};
      {|{"n": 0}|};
      {|{"k": 0}|};
      {|{"fprog": 5, "fack": 1}|};
      {|{"arrivals": "sometimes"}|};
      {|{"repeat": 0}|};
      {|{"gprime": "r-restricted", "r": 0}|};
      {|{"extra": -1}|};
      {|not json|};
    ]

let test_scenario_checks_names () =
  List.iter
    (fun (cfg, msg) ->
      Alcotest.(check (result reject string))
        cfg (Error msg)
        (Result.map ignore (Mmb.Scenario.of_string cfg)))
    [
      ( {|{"topology": "bogus"}|},
        {|unknown topology "bogus"; known: line, ring, star, grid, geometric|}
      );
      ( {|{"gprime": "bogus"}|},
        "unknown G' regime \"bogus\"; known: equal, r-restricted, arbitrary, \
         greyzone"
      );
      ( {|{"scheduler": "bogus"}|},
        {|unknown scheduler "bogus"; known: eager, random, adversarial, bursty|}
      );
      ({|{"arrivals": "poisson", "rate": 0}|}, "need rate > 0");
      ({|{"arrivals": "staggered", "gap": -1}|}, "need gap >= 0");
    ];
  (* Every name is read into its variant, whether or not the run uses
     it, so these are refused too. *)
  List.iter
    (fun (cfg, msg) ->
      Alcotest.(check (result reject string))
        cfg (Error msg)
        (Result.map ignore (Mmb.Scenario.of_string cfg)))
    [
      ( {|{"gprime": "greyzone", "topology": "bogus"}|},
        {|unknown topology "bogus"; known: line, ring, star, grid, geometric|}
      );
      ( {|{"protocol": "fmmb", "scheduler": "bogus"}|},
        {|unknown scheduler "bogus"; known: eager, random, adversarial, bursty|}
      );
    ];
  Alcotest.check_raises "an unchecked spec does not run"
    (Invalid_argument "Scenario.run: need n >= 1")
    (fun () ->
      ignore (Mmb.Scenario.run { Mmb.Scenario.default with n = 0 } ~seed:1))

(* What a spec cannot hold is refused by name: a non-finite or
   out-of-range number, a member no run of the spec reads, and an audit
   no engine of the spec performs. *)
let test_scenario_refuses_unread () =
  let refused text msg =
    Alcotest.(check (result reject string))
      text (Error msg)
      (Result.map ignore (Mmb.Scenario.expand_string text))
  in
  refused {|{"fack": 1e400}|} {|field "fack": expected a finite number|};
  refused {|{"n": 1e20}|} {|field "n": integer out of range|};
  refused {|{"rate": 0.5}|} {|field "rate" needs "arrivals": "poisson"|};
  refused {|{"arrivals": "poisson", "gap": 1}|}
    {|field "gap" needs "arrivals": "staggered"|};
  refused {|{"sweep": {"param": "rate", "values": [0.1, 0.2]}}|}
    {|field "rate" needs "arrivals": "poisson"|};
  refused {|{"sweep": {"param": "name", "values": [1]}}|}
    {|sweep: "name" is not a numeric field|};
  List.iter
    (fun protocol ->
      refused
        (Printf.sprintf
           {|{"protocol": %S, "check": true, "gprime": "greyzone", "n": 30}|}
           protocol)
        {|check: only protocol "bmmb" is audited|})
    [ "fmmb"; "fmmb-online" ]

let test_scenario_bmmb_batch () =
  let spec =
    Result.get_ok
      (Mmb.Scenario.of_string
         {|{"name":"t","protocol":"bmmb","topology":"ring","n":12,"k":3,
            "scheduler":"adversarial","check":true,"repeat":2,"seed":5}|})
  in
  let runs = Mmb.Scenario.execute spec in
  Alcotest.(check int) "two runs" 2 (List.length runs);
  List.iter
    (fun r ->
      Alcotest.(check bool) "complete" true r.Mmb.Scenario.complete;
      Alcotest.(check int) "compliant" 0 r.Mmb.Scenario.violations;
      match r.Mmb.Scenario.bound with
      | Some b ->
          Alcotest.(check bool) "within bound" true
            (r.Mmb.Scenario.time <= b +. 1e-6)
      | None -> Alcotest.fail "bmmb batch should report a bound")
    runs

let test_scenario_online () =
  let spec =
    Result.get_ok
      (Mmb.Scenario.of_string
         {|{"protocol":"bmmb","arrivals":"poisson","rate":0.01,"n":10,"k":4}|})
  in
  match Mmb.Scenario.execute spec with
  | [ r ] ->
      Alcotest.(check bool) "complete" true r.Mmb.Scenario.complete;
      Alcotest.(check bool) "reports latency" true
        (r.Mmb.Scenario.mean_latency <> None)
  | _ -> Alcotest.fail "expected one run"

let test_scenario_fmmb_rejects_online () =
  Alcotest.(check (result reject string))
    "fmmb+poisson rejected at load"
    (Error "protocol fmmb supports batch arrivals only (use fmmb-online)")
    (Result.map ignore
       (Mmb.Scenario.of_string {|{"protocol":"fmmb","arrivals":"poisson"}|}))

let test_scenario_fmmb_online () =
  let spec =
    Result.get_ok
      (Mmb.Scenario.of_string
         {|{"protocol":"fmmb-online","gprime":"greyzone","n":25,"k":3,
            "arrivals":"staggered","gap":500}|})
  in
  match Mmb.Scenario.execute spec with
  | [ r ] -> Alcotest.(check bool) "complete" true r.Mmb.Scenario.complete
  | _ -> Alcotest.fail "expected one run"

let test_scenario_report_and_json () =
  let spec =
    Result.get_ok
      (Mmb.Scenario.of_string {|{"name":"demo","n":8,"k":2,"repeat":2}|})
  in
  let runs = Mmb.Scenario.execute spec in
  let rep = Mmb.Scenario.report spec runs in
  Alcotest.(check bool) "report names scenario" true
    (String.length rep > 0
    &&
    let rec contains i =
      i + 4 <= String.length rep
      && (String.sub rep i 4 = "demo" || contains (i + 1))
    in
    contains 0);
  match Dsim.Json.parse (Dsim.Json.to_string (Mmb.Scenario.result_json spec runs)) with
  | Ok (Dsim.Json.Obj _) -> ()
  | _ -> Alcotest.fail "result json should be a parsable object"

let suite =
  [
    ( "dsim.json",
      [
        Alcotest.test_case "parses values" `Quick test_json_values;
        Alcotest.test_case "rejects malformed input" `Quick test_json_rejects;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
      ] );
    ( "mmb.scenario",
      [
        Alcotest.test_case "defaults" `Quick test_scenario_defaults;
        Alcotest.test_case "rejects bad configs" `Quick
          test_scenario_rejects_bad_config;
        Alcotest.test_case "names checked at load" `Quick
          test_scenario_checks_names;
        Alcotest.test_case "refuses what a spec cannot hold" `Quick
          test_scenario_refuses_unread;
        Alcotest.test_case "bmmb batch" `Quick test_scenario_bmmb_batch;
        Alcotest.test_case "bmmb online" `Quick test_scenario_online;
        Alcotest.test_case "fmmb rejects online arrivals" `Quick
          test_scenario_fmmb_rejects_online;
        Alcotest.test_case "fmmb-online staggered" `Slow
          test_scenario_fmmb_online;
        Alcotest.test_case "report and json output" `Quick
          test_scenario_report_and_json;
      ] );
  ]

(* --- sweeps ------------------------------------------------------------------ *)

let test_sweep_expansion () =
  match
    Mmb.Scenario.expand_string
      {|{"name":"s","n":10,"sweep":{"param":"k","values":[1,2,4]}}|}
  with
  | Error e -> Alcotest.fail e
  | Ok specs ->
      Alcotest.(check int) "three specs" 3 (List.length specs);
      Alcotest.(check (list int)) "k values applied" [ 1; 2; 4 ]
        (List.map (fun s -> s.Mmb.Scenario.k) specs);
      List.iter
        (fun s ->
          Alcotest.(check int) "other fields preserved" 10 s.Mmb.Scenario.n)
        specs

let test_sweep_float_param () =
  match
    Mmb.Scenario.expand_string
      {|{"sweep":{"param":"fack","values":[5, 40]}}|}
  with
  | Error e -> Alcotest.fail e
  | Ok specs ->
      Alcotest.(check (list (float 1e-9))) "fack values" [ 5.; 40. ]
        (List.map (fun s -> s.Mmb.Scenario.fack) specs)

let test_sweep_errors () =
  List.iter
    (fun cfg ->
      match Mmb.Scenario.expand_string cfg with
      | Ok _ -> Alcotest.failf "accepted %s" cfg
      | Error _ -> ())
    [
      {|{"sweep":{}}|};
      {|{"sweep":{"param":"k","values":[]}}|};
      {|{"sweep":{"param":"k","values":["a"]}}|};
      {|{"sweep":{"param":"k","values":[0],"x":1}, "n": 0}|};
    ]

(* --- Loader hardening: typos fail loudly, with the field named ----------- *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_unknown_field_rejected () =
  (match Mmb.Scenario.of_string {|{"topolgy": "ring"}|} with
  | Ok _ -> Alcotest.fail "typo'd field accepted (silently defaulted)"
  | Error e ->
      Alcotest.(check bool) "error names the offending field" true
        (contains ~sub:"topolgy" e);
      Alcotest.(check bool) "error lists the vocabulary" true
        (contains ~sub:"topology" e));
  (match Mmb.Scenario.expand_string {|{"seeed": 3}|} with
  | Ok _ -> Alcotest.fail "expand must validate too"
  | Error e ->
      Alcotest.(check bool) "expand error names the field" true
        (contains ~sub:"seeed" e));
  match Mmb.Scenario.of_string {|{"sweep":{"param":"k","values":[1],"step":2}}|} with
  | Ok _ -> Alcotest.fail "unknown sweep field accepted"
  | Error e ->
      Alcotest.(check bool) "sweep error names the field" true
        (contains ~sub:"step" e)

let test_unknown_sweep_param_rejected () =
  match
    Mmb.Scenario.expand_string {|{"sweep":{"param":"kk","values":[1,2]}}|}
  with
  | Ok _ -> Alcotest.fail "sweep over a nonexistent parameter accepted"
  | Error e ->
      Alcotest.(check bool) "error names the bogus parameter" true
        (contains ~sub:"kk" e)

let test_load_file_prefixes_errors () =
  let path = Filename.temp_file "scenario" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc {|{"protokoll": "bmmb"}|};
      close_out oc;
      (match Mmb.Scenario.load_file path with
      | Ok _ -> Alcotest.fail "bad file accepted"
      | Error e ->
          Alcotest.(check bool) "error carries the file name" true
            (contains ~sub:path e);
          Alcotest.(check bool) "and the field" true
            (contains ~sub:"protokoll" e));
      match Mmb.Scenario.load_file (path ^ ".missing") with
      | Ok _ -> Alcotest.fail "missing file accepted"
      | Error _ -> ())

let test_load_file_expands () =
  let path = Filename.temp_file "scenario" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc {|{"n": 9, "sweep":{"param":"k","values":[1,2]}}|};
      close_out oc;
      match Mmb.Scenario.load_file path with
      | Error e -> Alcotest.fail e
      | Ok specs ->
          Alcotest.(check (list int)) "sweep expanded" [ 1; 2 ]
            (List.map (fun s -> s.Mmb.Scenario.k) specs))

let test_spec_to_json_roundtrip () =
  let text =
    {|{"name":"rt","protocol":"bmmb","arrivals":"poisson","rate":0.5,"n":9}|}
  in
  let spec = Result.get_ok (Mmb.Scenario.of_string text) in
  let json = Mmb.Scenario.spec_to_json spec in
  (* The resolved spec is itself a valid scenario, and fully resolved:
     re-parsing it yields the same spec (the campaign's keying invariant). *)
  let spec' = Result.get_ok (Mmb.Scenario.of_json json) in
  Alcotest.(check bool) "spec_to_json round-trips through of_json" true
    (spec = spec');
  Alcotest.(check string) "and re-serializes identically"
    (Dsim.Json.to_string json)
    (Dsim.Json.to_string (Mmb.Scenario.spec_to_json spec'))

(* The bytes [spec_to_json] prints are the campaign's cache keys: pinned
   over every spec scenarios/*.json expands to, then six edge inputs. *)
let test_spec_to_json_pinned () =
  let dir = "../scenarios" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  let specs =
    List.concat_map
      (fun f -> ok (Mmb.Scenario.load_file (Filename.concat dir f)))
      files
    @ List.map
        (fun text -> ok (Mmb.Scenario.of_string text))
        [
          {|{}|};
          {|{"arrivals":"staggered","gap":3,"protocol":"fmmb-online"}|};
          {|{"dynamic":{}}|};
          {|{"dynamic":{"kind":"flap","period":3},"partitions":2}|};
          {|{"domains":3}|};
          {|{"gprime":"greyzone","n":20}|};
        ]
  in
  let lines =
    List.map
      (fun s -> Dsim.Json.to_string (Mmb.Scenario.spec_to_json s) ^ "\n")
      specs
  in
  Alcotest.(check int) "specs" 15 (List.length lines);
  Alcotest.(check string) "md5 of the 15 lines"
    "b47a6b3c7deeefac25d78eedc35dd6f9"
    (Digest.to_hex (Digest.string (String.concat "" lines)))

(* The known-field lists, the dynamic vocabulary and mmb_sim's flags all
   come from one table. *)
let test_one_table () =
  let keys = List.map (fun f -> f.Mmb.Scenario.key) Mmb.Scenario.fields in
  let outer key = List.hd (String.split_on_char '.' key) in
  let top =
    List.fold_left
      (fun acc key ->
        if List.mem (outer key) acc then acc else acc @ [ outer key ])
      [] keys
  in
  let dynamic =
    List.filter_map
      (fun key ->
        match String.split_on_char '.' key with
        | [ "dynamic"; inner ] -> Some inner
        | _ -> None)
      keys
  in
  let refusal text =
    match Mmb.Scenario.of_string text with
    | Ok _ -> Alcotest.failf "accepted %s" text
    | Error e -> e
  in
  Alcotest.(check string) "known fields: the top-level keys, then sweep"
    ("unknown field \"x\"; known fields: "
    ^ String.concat ", " (top @ [ "sweep" ]))
    (refusal {|{"x": 1}|});
  Alcotest.(check string) "the dynamic vocabulary: the dynamic.* keys"
    ("dynamic: unknown field \"x\"; known fields: "
    ^ String.concat ", " dynamic)
    (refusal {|{"dynamic": {"x": 1}}|});
  let unique what names =
    Alcotest.(check (list string))
      what
      (List.sort_uniq String.compare names)
      (List.sort String.compare names)
  in
  unique "keys are unique" keys;
  unique "flag names are unique"
    (List.concat_map (fun f -> f.Mmb.Scenario.flags) Mmb.Scenario.fields)

let test_no_sweep_is_singleton () =
  match Mmb.Scenario.expand_string {|{"n": 7}|} with
  | Ok [ spec ] -> Alcotest.(check int) "n" 7 spec.Mmb.Scenario.n
  | Ok _ -> Alcotest.fail "expected singleton"
  | Error e -> Alcotest.fail e

let sweep_suite =
  ( "mmb.scenario-sweep",
    [
      Alcotest.test_case "expansion" `Quick test_sweep_expansion;
      Alcotest.test_case "float parameters" `Quick test_sweep_float_param;
      Alcotest.test_case "rejects malformed sweeps" `Quick test_sweep_errors;
      Alcotest.test_case "no sweep = singleton" `Quick
        test_no_sweep_is_singleton;
      Alcotest.test_case "unknown fields rejected with the field named"
        `Quick test_unknown_field_rejected;
      Alcotest.test_case "unknown sweep param rejected" `Quick
        test_unknown_sweep_param_rejected;
      Alcotest.test_case "load_file prefixes errors with the file" `Quick
        test_load_file_prefixes_errors;
      Alcotest.test_case "load_file expands sweeps" `Quick
        test_load_file_expands;
      Alcotest.test_case "spec_to_json round-trips" `Quick
        test_spec_to_json_roundtrip;
      Alcotest.test_case "spec_to_json bytes pinned" `Quick
        test_spec_to_json_pinned;
      Alcotest.test_case "one field table" `Quick test_one_table;
    ] )

let suite = suite @ [ sweep_suite ]
