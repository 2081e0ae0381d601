let test_deterministic () =
  let draw seed =
    let rng = Dsim.Rng.create ~seed in
    List.init 20 (fun _ -> Dsim.Rng.int rng 1000)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw 42) (draw 42);
  Alcotest.(check bool) "different seeds differ" true (draw 1 <> draw 2)

let test_int_bounds () =
  let rng = Dsim.Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Dsim.Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of range"
  done;
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Rng.int: non-positive bound") (fun () ->
      ignore (Dsim.Rng.int rng 0))

let test_bernoulli_extremes () =
  let rng = Dsim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0" false (Dsim.Rng.bernoulli rng ~p:0.);
    Alcotest.(check bool) "p=1" true (Dsim.Rng.bernoulli rng ~p:1.)
  done

let test_bernoulli_rate () =
  let rng = Dsim.Rng.create ~seed:3 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Dsim.Rng.bernoulli rng ~p:0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "rate near 0.25" true (abs_float (rate -. 0.25) < 0.02)

let test_split_independent () =
  let rng = Dsim.Rng.create ~seed:9 in
  let child = Dsim.Rng.split rng in
  let a = List.init 10 (fun _ -> Dsim.Rng.int rng 1_000_000) in
  let b = List.init 10 (fun _ -> Dsim.Rng.int child 1_000_000) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_shuffle_permutation () =
  let rng = Dsim.Rng.create ~seed:11 in
  let a = Array.init 50 Fun.id in
  Dsim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_bits_length () =
  let rng = Dsim.Rng.create ~seed:13 in
  Alcotest.(check int) "length" 17 (Array.length (Dsim.Rng.bits rng ~n:17))

let test_pick () =
  let rng = Dsim.Rng.create ~seed:17 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 50 do
    let v = Dsim.Rng.pick rng a in
    if not (Array.mem v a) then Alcotest.fail "pick outside array"
  done

(* The draws are [Random.State]'s, bit for bit: run side by side with the
   stdlib on a copy of the same state, [float], [float_cell] and
   [bernoulli] read the same values, and the two streams stay in step.
   [bernoulli] draws nothing for p <= 0 or p >= 1, so p is drawn from
   (0, 1). *)
let prop_draws_match_stdlib =
  let bound =
    QCheck.Gen.(
      frequency
        [
          (1, return 0.);
          (1, return 1.);
          (1, return 1e300);
          (3, float_range 0. 1e6);
        ])
  in
  let p = QCheck.Gen.float_range 1e-9 (1. -. 1e-9) in
  QCheck.Test.make ~count:200
    ~name:"float, float_cell and bernoulli are the stdlib's draws"
    (QCheck.make
       ~print:QCheck.Print.(triple int (list float) (list float))
       QCheck.Gen.(
         triple int (list_size (1 -- 20) bound) (list_size (1 -- 20) p)))
    (fun (seed, bounds, ps) ->
      let rng = Dsim.Rng.create ~seed in
      let st = Random.State.copy (rng :> Random.State.t) in
      let same a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let cell = [| 0. |] in
      List.for_all
        (fun b ->
          let x = Dsim.Rng.float rng b in
          let y = Random.State.float st b in
          cell.(0) <- b;
          Dsim.Rng.float_cell rng cell 0;
          same x y && same cell.(0) (Random.State.float st b))
        bounds
      && List.for_all
           (fun p ->
             Bool.equal (Dsim.Rng.bernoulli rng ~p)
               (Random.State.float st 1. < p))
           ps
      && Int64.equal
           (Random.State.bits64 (rng :> Random.State.t))
           (Random.State.bits64 st))

(* [int], [bernoulli] and [float_cell] allocate nothing, so a hot loop
   draws at no minor-heap cost. *)
let test_draws_allocate_nothing () =
  let rng = Dsim.Rng.create ~seed:19 in
  let cell = [| 0. |] in
  let hits = ref 0 in
  let draws () =
    for i = 1 to 10_000 do
      if Dsim.Rng.bernoulli rng ~p:0.5 then incr hits;
      cell.(0) <- 2.;
      Dsim.Rng.float_cell rng cell 0;
      hits := !hits + Dsim.Rng.int rng (1 + (i land 15))
    done
  in
  draws ();
  let before = Gc.minor_words () in
  draws ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the last cell draw is below its bound" true
    (cell.(0) >= 0. && cell.(0) < 2.);
  Alcotest.(check (float 0.)) "minor words over 30,000 draws" 0. words

let suite =
  [
    ( "dsim.rng",
      [
        Alcotest.test_case "deterministic from seed" `Quick test_deterministic;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        Alcotest.test_case "split independence" `Quick test_split_independent;
        Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "bits length" `Quick test_bits_length;
        Alcotest.test_case "pick stays in range" `Quick test_pick;
        QCheck_alcotest.to_alcotest prop_draws_match_stdlib;
        Alcotest.test_case "draws allocate nothing" `Quick
          test_draws_allocate_nothing;
      ] );
  ]
