let test_empty () =
  let h : int Dsim.Heap.t = Dsim.Heap.create () in
  Alcotest.(check bool) "empty" true (Dsim.Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Dsim.Heap.length h);
  Alcotest.(check bool) "pop none" true (Dsim.Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Dsim.Heap.peek_time h = None)

let test_ordering () =
  let h = Dsim.Heap.create () in
  ignore (Dsim.Heap.push h ~time:3. "c");
  ignore (Dsim.Heap.push h ~time:1. "a");
  ignore (Dsim.Heap.push h ~time:2. "b");
  let drain () =
    let rec go acc =
      match Dsim.Heap.pop h with
      | None -> List.rev acc
      | Some (_, v) -> go (v :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (drain ())

let test_fifo_at_equal_times () =
  let h = Dsim.Heap.create () in
  List.iter (fun v -> ignore (Dsim.Heap.push h ~time:1. v)) [ 1; 2; 3; 4 ];
  let rec drain acc =
    match Dsim.Heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4 ] (drain [])

let test_cancel () =
  let h = Dsim.Heap.create () in
  let _a = Dsim.Heap.push h ~time:1. "a" in
  let b = Dsim.Heap.push h ~time:2. "b" in
  let _c = Dsim.Heap.push h ~time:3. "c" in
  Dsim.Heap.cancel h b;
  Alcotest.(check int) "length after cancel" 2 (Dsim.Heap.length h);
  Dsim.Heap.cancel h b (* double cancel is a no-op *);
  Alcotest.(check int) "length unchanged" 2 (Dsim.Heap.length h);
  let rec drain acc =
    match Dsim.Heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ] (drain [])

let test_cancel_root () =
  let h = Dsim.Heap.create () in
  let a = Dsim.Heap.push h ~time:1. "a" in
  ignore (Dsim.Heap.push h ~time:2. "b");
  Dsim.Heap.cancel h a;
  Alcotest.(check (option (float 1e-9))) "peek skips dead root" (Some 2.)
    (Dsim.Heap.peek_time h);
  (match Dsim.Heap.pop h with
  | Some (_, v) -> Alcotest.(check string) "pop skips dead root" "b" v
  | None -> Alcotest.fail "expected b")

let test_cancel_of_popped () =
  let h = Dsim.Heap.create () in
  let a = Dsim.Heap.push h ~time:1. "a" in
  let b = Dsim.Heap.push h ~time:2. "b" in
  ignore (Dsim.Heap.pop h) (* pops a *);
  Dsim.Heap.cancel h a (* must be a no-op: already popped *);
  Alcotest.(check int) "b still live" 1 (Dsim.Heap.length h);
  Alcotest.(check int) "cancel of popped not counted" 0
    (Dsim.Heap.cancelled h);
  Dsim.Heap.cancel h b;
  Dsim.Heap.cancel h b;
  Alcotest.(check int) "double cancel counted once" 1 (Dsim.Heap.cancelled h);
  Alcotest.(check bool) "drained" true (Dsim.Heap.pop h = None)

(* A handle names its entry, not its slot: once the slot is reused,
   cancelling the old handle must leave the new occupant alone. *)
let test_stale_handle_after_slot_reuse () =
  let h = Dsim.Heap.create () in
  let a = Dsim.Heap.push h ~time:1. "a" in
  ignore (Dsim.Heap.pop h) (* frees a's slot *);
  ignore (Dsim.Heap.push h ~time:2. "b") (* the only free slot: a's *);
  Dsim.Heap.cancel h a;
  Alcotest.(check int) "stale cancel not counted" 0 (Dsim.Heap.cancelled h);
  Alcotest.(check int) "b still live" 1 (Dsim.Heap.length h);
  Alcotest.(check bool) "b pops" true (Dsim.Heap.pop h = Some (2., "b"))

(* Entries live in recycled slots of flat arrays, so once the arrays have
   grown a push-cancel-peek cycle allocates nothing (an entry record per
   push would cost 4 words). *)
let test_push_allocates_nothing () =
  let h = Dsim.Heap.create () in
  let v = "payload" in
  let cycle () =
    Dsim.Heap.cancel h (Dsim.Heap.push h ~time:1. v);
    ignore (Dsim.Heap.peek_time h)
  in
  for _ = 1 to 100 do
    cycle ()
  done;
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    cycle ()
  done;
  let per_iter = (Gc.minor_words () -. before) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "push/cancel/peek_time allocated %.3f words per cycle"
       per_iter)
    true (per_iter < 0.001)

let test_pop_if_before () =
  let h = Dsim.Heap.create () in
  Alcotest.(check bool) "empty" true (Dsim.Heap.pop_if_before ~horizon:5. h = Dsim.Heap.Empty);
  ignore (Dsim.Heap.push h ~time:3. "a");
  ignore (Dsim.Heap.push h ~time:7. "b");
  Alcotest.(check bool) "beyond horizon stays queued" true
    (Dsim.Heap.pop_if_before ~horizon:2. h = Dsim.Heap.Later 3.);
  Alcotest.(check int) "nothing was popped" 2 (Dsim.Heap.length h);
  Alcotest.(check bool) "time exactly at horizon pops" true
    (Dsim.Heap.pop_if_before ~horizon:3. h = Dsim.Heap.Due (3., "a"));
  Alcotest.(check bool) "no horizon always pops" true
    (Dsim.Heap.pop_if_before h = Dsim.Heap.Due (7., "b"));
  Alcotest.(check bool) "drained" true
    (Dsim.Heap.pop_if_before h = Dsim.Heap.Empty)

let test_pop_if_before_skips_dead () =
  let h = Dsim.Heap.create () in
  let a = Dsim.Heap.push h ~time:1. "a" in
  ignore (Dsim.Heap.push h ~time:4. "b");
  Dsim.Heap.cancel h a;
  (* The dead root must be drained before the horizon comparison: the
     live minimum is 4., past the horizon. *)
  Alcotest.(check bool) "dead root invisible to the horizon check" true
    (Dsim.Heap.pop_if_before ~horizon:2. h = Dsim.Heap.Later 4.)

let test_nan_rejected () =
  let h = Dsim.Heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Heap.push: NaN time")
    (fun () -> ignore (Dsim.Heap.push h ~time:Float.nan ()))

let prop_drain_sorted =
  QCheck.Test.make ~name:"heap drains in sorted stable order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.) small_int))
    (fun entries ->
      let h = Dsim.Heap.create () in
      List.iter (fun (time, v) -> ignore (Dsim.Heap.push h ~time v)) entries;
      let rec drain acc =
        match Dsim.Heap.pop h with
        | None -> List.rev acc
        | Some (time, v) -> drain ((time, v) :: acc)
      in
      let out = drain [] in
      let times = List.map fst out in
      List.sort compare times = times && List.length out = List.length entries)

let prop_cancel_half =
  QCheck.Test.make ~name:"cancelling entries removes exactly them" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun times ->
      let h = Dsim.Heap.create () in
      let handles =
        List.mapi (fun i time -> (i, Dsim.Heap.push h ~time i)) times
      in
      let cancelled =
        List.filter_map
          (fun (i, hd) ->
            if i mod 2 = 0 then begin
              Dsim.Heap.cancel h hd;
              Some i
            end
            else None)
          handles
      in
      let rec drain acc =
        match Dsim.Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let out = drain [] in
      List.for_all (fun i -> not (List.mem i out)) cancelled
      && List.length out = List.length times - List.length cancelled)

let suite =
  [
    ( "dsim.heap",
      [
        Alcotest.test_case "empty heap" `Quick test_empty;
        Alcotest.test_case "pops in time order" `Quick test_ordering;
        Alcotest.test_case "stable at equal times" `Quick test_fifo_at_equal_times;
        Alcotest.test_case "cancellation" `Quick test_cancel;
        Alcotest.test_case "cancel at root" `Quick test_cancel_root;
        Alcotest.test_case "cancel of popped entry" `Quick
          test_cancel_of_popped;
        Alcotest.test_case "stale handle after slot reuse" `Quick
          test_stale_handle_after_slot_reuse;
        Alcotest.test_case "push allocates nothing" `Quick
          test_push_allocates_nothing;
        Alcotest.test_case "pop_if_before semantics" `Quick test_pop_if_before;
        Alcotest.test_case "pop_if_before skips dead roots" `Quick
          test_pop_if_before_skips_dead;
        Alcotest.test_case "rejects NaN time" `Quick test_nan_rejected;
        QCheck_alcotest.to_alcotest prop_drain_sorted;
        QCheck_alcotest.to_alcotest prop_cancel_half;
      ] );
  ]
