(* Determinism regression: the same scenario run twice from the same seed
   must emit bit-identical traces.

   This is NOT trivially true: each run allocates fresh hash tables, and
   when hashing is randomized those tables hash (hence iterate) differently
   run-to-run, so any [Hashtbl.iter]/[Hashtbl.fold] on a behavior-relevant
   path diverges the two traces.  That is exactly the hazard class lint rule
   D1 bans and Dsim.Tbl exists to fix.

   CI note: OCaml only randomizes Hashtbl hashing when asked.  Run

     OCAMLRUNPARAM=R dune runtest

   at least once after touching iteration code — with the R flag every
   Hashtbl.create draws a fresh random hash seed, so a reintroduced
   order-dependent traversal makes these two tests fail instead of
   silently passing under the deterministic default hashing. *)

let grey_dual ~seed ~n =
  let rng = Dsim.Rng.create ~seed in
  Graphs.Dual.grey_zone_connected rng ~n
    ~width:(sqrt (float_of_int n /. 3.))
    ~height:(sqrt (float_of_int n /. 3.))
    ~c:2. ~p:0.4 ~max_tries:500

(* One BMMB run over the standard MAC with a randomized-compliant
   scheduler: exercises Standard_mac's instance/contender tables. *)
let bmmb_trace () =
  let dual = grey_dual ~seed:11 ~n:24 in
  let assignment = [ (0, 0); (5, 1); (11, 2) ] in
  let _, tr =
    Kept.run (fun instrument ->
        Mmb.Runner.run_bmmb ~dual ~fack:8. ~fprog:1.
          ~policy:(Amac.Schedulers.random_compliant ())
          ~assignment ~seed:42 ~check_compliance:true ~instrument ())
  in
  Dsim.Trace_io.to_jsonl tr

(* One FMMB run (MIS + gather + spread): exercises the custody/sent/
   pending tables in the fmmb_* modules. *)
let fmmb_trace () =
  let n = 24 in
  let dual = grey_dual ~seed:7 ~n in
  let assignment = [ (1, 0); (8, 1); (15, 2) ] in
  let rng = Dsim.Rng.create ~seed:42 in
  let trace = Dsim.Trace.create () in
  let tracker = Mmb.Problem.tracker ~dual assignment in
  let params = Mmb.Fmmb.default_params ~n ~k:(List.length assignment) ~c:2. in
  ignore
    (Mmb.Fmmb.run ~dual ~fprog:1. ~rng
       ~policy:(Amac.Enhanced_mac.minimal_random ())
       ~params ~assignment ~tracker ~trace ());
  Dsim.Trace_io.to_jsonl trace

let check_replay name run =
  let a = run () in
  let b = run () in
  if String.equal a b then ()
  else begin
    let la = String.split_on_char '\n' a
    and lb = String.split_on_char '\n' b in
    let rec first_diff i = function
      | x :: xs, y :: ys ->
          if String.equal x y then first_diff (i + 1) (xs, ys) else Some (i, x, y)
      | [], y :: _ -> Some (i, "<eof>", y)
      | x :: _, [] -> Some (i, x, "<eof>")
      | [], [] -> None
    in
    match first_diff 1 (la, lb) with
    | Some (line, x, y) ->
        Alcotest.failf
          "%s: same seed, diverging traces at line %d:\n  run 1: %s\n  run 2: %s"
          name line x y
    | None -> Alcotest.failf "%s: traces differ" name
  end

let test_bmmb_replay () = check_replay "bmmb" bmmb_trace
let test_fmmb_replay () = check_replay "fmmb" fmmb_trace

let suite =
  [
    ( "determinism",
      [
        Alcotest.test_case "BMMB trace replays bit-for-bit" `Quick
          test_bmmb_replay;
        Alcotest.test_case "FMMB trace replays bit-for-bit" `Quick
          test_fmmb_replay;
      ] );
  ]
