(* Fuzzing the loaders: a corrupted scenario document or JSONL trace is
   read to [Ok] or [Error], never to an escaping exception.  Each valid
   document is corrupted three ways: cut at every offset, one byte
   replaced by a JSON-structural character, and spliced (a prefix of
   one document joined to a suffix of another). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Two scenario files: a swept churned line and an FMMB field. *)
let scenarios =
  lazy
    [|
      read_file "../scenarios/churn_line.json";
      read_file "../scenarios/fmmb_greyzone.json";
    |]

(* Two JSONL traces over the same 6-node line: a BMMB run's, whose
   instances ack, and an FMMB run's, whose instances abort and whose
   control bodies carry msg -1. *)
let trace_n = 6

let traces =
  lazy
    (let dual = Graphs.Dual.of_equal (Graphs.Gen.line trace_n) in
     let assignment = [ (0, 0); (5, 1) ] in
     let _, bmmb =
       Kept.run (fun instrument ->
           Mmb.Runner.run_bmmb ~dual ~fack:4. ~fprog:1.
             ~policy:(Amac.Schedulers.random_compliant ())
             ~assignment ~seed:3 ~instrument ())
     in
     let fmmb = Dsim.Trace.create () in
     ignore
       (Mmb.Fmmb.run ~dual ~fprog:1. ~rng:(Dsim.Rng.create ~seed:3)
          ~policy:(Amac.Enhanced_mac.minimal_random ())
          ~params:(Mmb.Fmmb.default_params ~n:trace_n ~k:2 ~c:2.)
          ~assignment
          ~tracker:(Mmb.Problem.tracker ~dual assignment)
          ~trace:fmmb ());
     (* The FMMB run's first 60 entries keep the exhaustive cuts quick. *)
     let head =
       List.filteri (fun i _ -> i < 60) (Dsim.Trace.entries fmmb)
       |> List.map Dsim.Trace_io.entry_to_json
       |> List.map (fun line -> line ^ "\n")
       |> String.concat ""
     in
     [| Dsim.Trace_io.to_jsonl bmmb; head |])

(* Whether [load] returns on [text]; an exception is the finding. *)
let returns load text =
  match load text with
  | Ok _ | Error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) text

let load_scenario text = Mmb.Scenario.expand_string text

let load_trace text =
  Result.bind (Dsim.Trace_io.of_jsonl text) (Dsim.Trace_io.check ~n:trace_n)

let every_cut name docs load () =
  Array.iter
    (fun doc ->
      for i = 0 to String.length doc do
        ignore (returns load (String.sub doc 0 i))
      done)
    (Lazy.force docs);
  Alcotest.(check pass) name () ()

let structural = "{}[]\":,-.e0123456789"

(* A document, a position in it and a structural byte: the document
   with that byte at that position. *)
let substitution docs =
  QCheck.make
    ~print:(fun (d, i, c) -> Printf.sprintf "doc %d, byte %d := %C" d i c)
    QCheck.Gen.(
      let* d = int_bound 1 in
      let* i = int_bound (String.length (Lazy.force docs).(d) - 1) in
      let* c = oneofl (List.init (String.length structural) (String.get structural)) in
      return (d, i, c))

let substituted docs (d, i, c) =
  let b = Bytes.of_string (Lazy.force docs).(d) in
  Bytes.set b i c;
  Bytes.to_string b

(* Two documents and a cut in each: the first's prefix joined to the
   second's suffix. *)
let splice docs =
  QCheck.make
    ~print:(fun (a, i, b, j) ->
      Printf.sprintf "doc %d up to %d, then doc %d from %d" a i b j)
    QCheck.Gen.(
      let* a = int_bound 1 and* b = int_bound 1 in
      let docs = Lazy.force docs in
      let* i = int_bound (String.length docs.(a)) in
      let* j = int_bound (String.length docs.(b)) in
      return (a, i, b, j))

let spliced docs (a, i, b, j) =
  let docs = Lazy.force docs in
  String.sub docs.(a) 0 i ^ String.sub docs.(b) j (String.length docs.(b) - j)

let props name docs load =
  [
    QCheck.Test.make ~count:500
      ~name:(name ^ ": a substituted byte gives Ok or Error")
      (substitution docs)
      (fun x -> returns load (substituted docs x));
    QCheck.Test.make ~count:500
      ~name:(name ^ ": a splice of two documents gives Ok or Error")
      (splice docs)
      (fun x -> returns load (spliced docs x));
  ]

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "scenario: every cut gives Ok or Error" `Quick
          (every_cut "scenario cuts" scenarios load_scenario);
        Alcotest.test_case "trace: every cut gives Ok or Error" `Quick
          (every_cut "trace cuts" traces load_trace);
      ]
      @ List.map QCheck_alcotest.to_alcotest
          (props "scenario" scenarios load_scenario
          @ props "trace" traces load_trace) );
  ]
