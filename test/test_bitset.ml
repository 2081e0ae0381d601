(* Dsim.Bitset against a model: a sorted list of distinct ints.  Two
   sets of different initial widths take random operations, with ids
   past both widths, and every answer is compared with the model's. *)

module B = Dsim.Bitset

type op =
  | Add of int
  | Remove of int
  | Mem of int
  | Test_and_add of int
  | Add_other of int
  | Remove_other of int
  | Copy  (** make the other set equal to the first, element by element *)
  | Min
  | Min_diff
  | Cardinal
  | Equal
  | Clear
  | Iter

let op_of (tag, id) =
  match tag with
  | 0 -> Add id
  | 1 -> Remove id
  | 2 -> Mem id
  | 3 -> Test_and_add id
  | 4 -> Add_other id
  | 5 -> Remove_other id
  | 6 -> Copy
  | 7 -> Min
  | 8 -> Min_diff
  | 9 -> Cardinal
  | 10 -> Equal
  | 11 -> Clear
  | _ -> Iter

let show = function
  | Add i -> Printf.sprintf "add %d" i
  | Remove i -> Printf.sprintf "remove %d" i
  | Mem i -> Printf.sprintf "mem %d" i
  | Test_and_add i -> Printf.sprintf "test_and_add %d" i
  | Add_other i -> Printf.sprintf "add_other %d" i
  | Remove_other i -> Printf.sprintf "remove_other %d" i
  | Copy -> "copy"
  | Min -> "min_elt"
  | Min_diff -> "min_diff"
  | Cardinal -> "cardinal"
  | Equal -> "equal"
  | Clear -> "clear"
  | Iter -> "iter"

let model_add i l = if List.mem i l then l else List.sort Int.compare (i :: l)
let model_remove i l = List.filter (fun x -> x <> i) l
let elements s =
  let acc = ref [] in
  B.iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

(* Runs [ops] on sets of widths [wa] and [wb]; the first disagreement
   with the model, if any. *)
let disagreement ~wa ~wb ops =
  let a = B.create ~width:wa and b = B.create ~width:wb in
  let la = ref [] and lb = ref [] in
  let step op =
    let ok =
      match op with
      | Add i ->
          B.add a i;
          la := model_add i !la;
          true
      | Remove i ->
          B.remove a i;
          la := model_remove i !la;
          true
      | Mem i -> B.mem a i = List.mem i !la
      | Test_and_add i ->
          let was = List.mem i !la in
          la := model_add i !la;
          B.test_and_add a i = was
      | Add_other i ->
          B.add b i;
          lb := model_add i !lb;
          true
      | Remove_other i ->
          B.remove b i;
          lb := model_remove i !lb;
          true
      | Copy ->
          List.iter (B.remove b) !lb;
          List.iter (B.add b) !la;
          lb := !la;
          true
      | Min -> B.min_elt a = (match !la with [] -> None | x :: _ -> Some x)
      | Min_diff ->
          B.min_diff a b = List.find_opt (fun x -> not (List.mem x !lb)) !la
      | Cardinal -> B.cardinal a = List.length !la
      | Equal -> B.equal a b = (!la = !lb) && B.equal b a = (!la = !lb)
      | Clear ->
          B.clear a;
          la := [];
          true
      | Iter -> elements a = !la && elements b = !lb
    in
    if ok then None else Some (show op)
  in
  List.find_map step (List.map op_of ops)

let prop_matches_model =
  QCheck.Test.make ~name:"Bitset agrees with a sorted-list model" ~count:500
    QCheck.(
      pair (pair (int_bound 40) (int_bound 40))
        (list_of_size Gen.(0 -- 120) (pair (int_bound 12) (int_bound 150))))
    (fun ((wa, wb), ops) ->
      match disagreement ~wa ~wb ops with
      | None -> true
      | Some op ->
          QCheck.Test.fail_reportf "widths %d, %d: %s disagrees" wa wb op)

let test_negative_id_refused () =
  let s = B.create ~width:8 in
  Alcotest.check_raises "add"
    (Invalid_argument "Bitset.add: ids must be >= 0") (fun () -> B.add s (-1));
  Alcotest.check_raises "test_and_add"
    (Invalid_argument "Bitset.test_and_add: ids must be >= 0") (fun () ->
      ignore (B.test_and_add s min_int));
  Alcotest.check_raises "create"
    (Invalid_argument "Bitset.create: need width >= 0") (fun () ->
      ignore (B.create ~width:(-1)));
  B.remove s (-3);
  Alcotest.(check bool) "a negative id is not a member" false (B.mem s (-3));
  Alcotest.(check int) "still empty" 0 (B.cardinal s)

(* Equal members, different widths: a set that grew and then lost its
   high ids equals a narrow one. *)
let test_equal_across_widths () =
  let wide = B.create ~width:0 and narrow = B.create ~width:8 in
  List.iter (B.add wide) [ 3; 700 ];
  B.remove wide 700;
  B.add narrow 3;
  Alcotest.(check bool) "equal" true (B.equal wide narrow);
  Alcotest.(check bool) "symmetric" true (B.equal narrow wide);
  B.add wide 9;
  Alcotest.(check bool) "a member past the narrow width differs" false
    (B.equal narrow wide)

(* On a set already wide enough, the receipt path, and a clear between
   rounds, allocate nothing. *)
let test_no_allocation () =
  let s = B.create ~width:1024 and acc = ref 0 in
  let w0 = Gc.minor_words () in
  for r = 1 to 100 do
    for i = 0 to 1023 do
      if (i * r) land 3 = 0 then B.add s i else B.remove s i;
      if B.mem s i then incr acc;
      if not (B.test_and_add s i) then incr acc
    done;
    B.clear s
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 307,300 operations" 0. words;
  Alcotest.(check bool) "work was done" true (!acc > 0)

let suite =
  [
    ( "dsim.bitset",
      [
        QCheck_alcotest.to_alcotest prop_matches_model;
        Alcotest.test_case "negative id refused by name" `Quick
          test_negative_id_refused;
        Alcotest.test_case "equal across widths" `Quick test_equal_across_widths;
        Alcotest.test_case "mem, add and remove allocate nothing" `Quick
          test_no_allocation;
      ] );
  ]
