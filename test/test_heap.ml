(* The heap orders slots, not values.  [V] keeps each entry's value by
   slot beside it, as Dsim.Sim keeps its payloads, so these tests read
   popped values the way the simulator does. *)
module V = struct
  type 'a t = { heap : Dsim.Heap.t; mutable values : 'a option array }

  let create () = { heap = Dsim.Heap.create (); values = [||] }

  let store v slot value =
    if slot >= Array.length v.values then begin
      let values = Array.make (2 * (slot + 1)) None in
      Array.blit v.values 0 values 0 (Array.length v.values);
      v.values <- values
    end;
    v.values.(slot) <- Some value

  let push v ~time value =
    let hd = Dsim.Heap.push v.heap ~time in
    store v (Dsim.Heap.slot hd) value;
    hd

  let value v slot = Option.get v.values.(slot)

  let pop v =
    let cell = [| nan |] in
    match Dsim.Heap.pop_until v.heap ~until:infinity ~time:cell with
    | -1 -> None
    | slot -> Some (cell.(0), value v slot)

  let peek_time v =
    if Dsim.Heap.is_empty v.heap then None else Some (Dsim.Heap.min_time v.heap)

  (* [pop_until] as a value-level result: [`Due] pops, [`Later t] leaves
     a minimum at [t] past the horizon queued. *)
  let pop_until ?(until = infinity) v =
    let cell = [| nan |] in
    match Dsim.Heap.pop_until v.heap ~until ~time:cell with
    | -1 ->
        if Dsim.Heap.is_empty v.heap then `Empty
        else `Later (Dsim.Heap.min_time v.heap)
    | slot -> `Due (cell.(0), value v slot)

  let drain v =
    let rec go acc =
      match pop v with None -> List.rev acc | Some (_, x) -> go (x :: acc)
    in
    go []
end

let test_empty () =
  let h : int V.t = V.create () in
  Alcotest.(check bool) "empty" true (Dsim.Heap.is_empty h.V.heap);
  Alcotest.(check int) "length" 0 (Dsim.Heap.length h.V.heap);
  Alcotest.(check bool) "pop none" true (V.pop h = None);
  Alcotest.(check bool) "pop slot none" true
    (Dsim.Heap.pop_until h.V.heap ~until:infinity ~time:[| 0. |] = -1);
  Alcotest.(check bool) "peek none" true (V.peek_time h = None);
  Alcotest.(check (float 0.)) "min_time of empty" infinity
    (Dsim.Heap.min_time h.V.heap)

let test_ordering () =
  let h = V.create () in
  ignore (V.push h ~time:3. "c");
  ignore (V.push h ~time:1. "a");
  ignore (V.push h ~time:2. "b");
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (V.drain h)

let test_fifo_at_equal_times () =
  let h = V.create () in
  List.iter (fun v -> ignore (V.push h ~time:1. v)) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4 ] (V.drain h)

let test_cancel () =
  let h = V.create () in
  let _a = V.push h ~time:1. "a" in
  let b = V.push h ~time:2. "b" in
  let _c = V.push h ~time:3. "c" in
  Dsim.Heap.cancel h.V.heap b;
  Alcotest.(check int) "length after cancel" 2 (Dsim.Heap.length h.V.heap);
  Dsim.Heap.cancel h.V.heap b (* double cancel is a no-op *);
  Alcotest.(check int) "length unchanged" 2 (Dsim.Heap.length h.V.heap);
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ] (V.drain h)

let test_cancel_root () =
  let h = V.create () in
  let a = V.push h ~time:1. "a" in
  ignore (V.push h ~time:2. "b");
  Dsim.Heap.cancel h.V.heap a;
  Alcotest.(check (option (float 1e-9))) "peek skips dead root" (Some 2.)
    (V.peek_time h);
  (match V.pop h with
  | Some (_, v) -> Alcotest.(check string) "pop skips dead root" "b" v
  | None -> Alcotest.fail "expected b")

let test_cancel_of_popped () =
  let h = V.create () in
  let a = V.push h ~time:1. "a" in
  let b = V.push h ~time:2. "b" in
  ignore (V.pop h) (* pops a *);
  Dsim.Heap.cancel h.V.heap a (* must be a no-op: already popped *);
  Alcotest.(check int) "b still live" 1 (Dsim.Heap.length h.V.heap);
  Alcotest.(check int) "cancel of popped not counted" 0
    (Dsim.Heap.cancelled h.V.heap);
  Dsim.Heap.cancel h.V.heap b;
  Dsim.Heap.cancel h.V.heap b;
  Alcotest.(check int) "double cancel counted once" 1
    (Dsim.Heap.cancelled h.V.heap);
  Alcotest.(check bool) "drained" true (V.pop h = None)

(* A handle names its entry, not its slot: once the slot is reused,
   cancelling the old handle must leave the new occupant alone. *)
let test_stale_handle_after_slot_reuse () =
  let h = V.create () in
  let a = V.push h ~time:1. "a" in
  ignore (V.pop h) (* frees a's slot *);
  let b = V.push h ~time:2. "b" (* the only free slot: a's *) in
  Alcotest.(check int) "b reuses a's slot" (Dsim.Heap.slot a)
    (Dsim.Heap.slot b);
  Dsim.Heap.cancel h.V.heap a;
  Alcotest.(check int) "stale cancel not counted" 0
    (Dsim.Heap.cancelled h.V.heap);
  Alcotest.(check int) "b still live" 1 (Dsim.Heap.length h.V.heap);
  Alcotest.(check bool) "b pops" true (V.pop h = Some (2., "b"))

(* Entries live in recycled slots of flat arrays and the heap holds no
   values, so once the arrays have grown a push-cancel-peek cycle
   allocates nothing (an entry record per push would cost 4 words).  The
   peek is [pop_until] with a horizon before every entry: it drains the
   dead root and hands back no time, so no float is boxed.  Its delays
   repeat, so its [push_after]s go to open lanes (delay 2 opens before
   the count starts, delay 1 in the warm-up): it cancels a lane entry,
   and pops a lane's first entry, which puts the next one at the root.
   The clock stays at 0, so three delay-2 entries stay live. *)
let test_push_allocates_nothing () =
  let h = Dsim.Heap.create () in
  let cell = [| 0. |] and out = [| 0. |] and delays = [| 1.; 2. |] in
  for _ = 1 to 3 do
    ignore (Dsim.Heap.push_after h ~now:cell ~delays ~at:1)
  done;
  let cycle () =
    Dsim.Heap.cancel h (Dsim.Heap.push h ~time:1.);
    Dsim.Heap.cancel h (Dsim.Heap.push_after h ~now:cell ~delays ~at:0);
    ignore (Dsim.Heap.pop_until h ~until:0. ~time:cell);
    Dsim.Heap.cancel h (Dsim.Heap.push_after h ~now:cell ~delays ~at:1);
    ignore (Dsim.Heap.push_after h ~now:cell ~delays ~at:1);
    ignore (Dsim.Heap.pop_until h ~until:infinity ~time:out)
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
    (Printf.sprintf "push/cancel/peek allocated %.3f words per cycle"
       per_iter)
    true (per_iter < 0.001);
  Alcotest.(check int) "the lane still holds three entries" 3
    (Dsim.Heap.length h);
  Alcotest.(check (float 0.)) "each due at 2" 2. out.(0)

let test_pop_if_before () =
  let h = V.create () in
  Alcotest.(check bool) "empty" true (V.pop_until ~until:5. h = `Empty);
  ignore (V.push h ~time:3. "a");
  ignore (V.push h ~time:7. "b");
  Alcotest.(check bool) "beyond horizon stays queued" true
    (V.pop_until ~until:2. h = `Later 3.);
  Alcotest.(check int) "nothing was popped" 2 (Dsim.Heap.length h.V.heap);
  Alcotest.(check bool) "time exactly at horizon pops" true
    (V.pop_until ~until:3. h = `Due (3., "a"));
  Alcotest.(check bool) "no horizon always pops" true
    (V.pop_until h = `Due (7., "b"));
  Alcotest.(check bool) "drained" true (V.pop_until h = `Empty)

let test_pop_if_before_skips_dead () =
  let h = V.create () in
  let a = V.push h ~time:1. "a" in
  ignore (V.push h ~time:4. "b");
  Dsim.Heap.cancel h.V.heap a;
  (* The dead root must be drained before the horizon comparison: the
     live minimum is 4., past the horizon. *)
  Alcotest.(check bool) "dead root invisible to the horizon check" true
    (V.pop_until ~until:2. h = `Later 4.)

(* A lane's first entry is in the heap; the rest of the lane is not.
   When that first entry is cancelled, its slot is free at once, and a
   heap push takes it (the free-slot stack hands back the latest freed
   slot).  The dead key that surfaces at the root must still advance its
   lane: a lane looked up by the dead key's slot would find the heap
   entry's, and the lane's other entries would never pop. *)
let test_dead_lane_head_after_slot_reuse () =
  let h = V.create () in
  let now = [| 0. |] in
  let push_after name =
    let hd = Dsim.Heap.push_after h.V.heap ~now ~delays:[| 1. |] ~at:0 in
    V.store h (Dsim.Heap.slot hd) name;
    hd
  in
  ignore (push_after "a" (* outside any lane: the delay is new *));
  let b = push_after "b" (* repeats it: opens a lane, b first *) in
  ignore (push_after "c" (* behind b in the lane *));
  ignore (push_after "d");
  Dsim.Heap.cancel h.V.heap b;
  let e = V.push h ~time:2. "e" in
  Alcotest.(check int) "e reuses b's slot" (Dsim.Heap.slot b)
    (Dsim.Heap.slot e);
  Alcotest.(check int) "live entries" 4 (Dsim.Heap.length h.V.heap);
  Alcotest.(check (list string)) "the lane advances past its dead head"
    [ "a"; "c"; "d"; "e" ] (V.drain h);
  Alcotest.(check bool) "drained" true (Dsim.Heap.is_empty h.V.heap)

(* An entry pushed after its lane's tail time would unsort the lane, so
   it goes to the heap: here the clock goes back between pushes of one
   delay, as only a caller other than the simulator can make it. *)
let test_lane_append_out_of_order () =
  let h = V.create () in
  let now = [| 5. |] in
  let push_after name =
    let hd = Dsim.Heap.push_after h.V.heap ~now ~delays:[| 1. |] ~at:0 in
    V.store h (Dsim.Heap.slot hd) name
  in
  push_after "a";
  push_after "b" (* opens the lane: due at 6 *);
  now.(0) <- 1.;
  push_after "c" (* due at 2, before the lane's tail *);
  now.(0) <- 7.;
  push_after "d" (* due at 8: joins the lane *);
  ignore (V.push h ~time:6. "e" (* ties b at 6, pushed later *));
  Alcotest.(check (list string)) "(time, seq) order" [ "c"; "a"; "b"; "e"; "d" ]
    (V.drain h)

let test_nan_rejected () =
  let h = Dsim.Heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Heap.push: NaN time")
    (fun () -> ignore (Dsim.Heap.push h ~time:Float.nan));
  Alcotest.check_raises "nan sum" (Invalid_argument "Heap.push: NaN time")
    (fun () ->
      ignore
        (Dsim.Heap.push_after h ~now:[| infinity |] ~delays:[| neg_infinity |]
           ~at:0))

(* Once cancels leave more dead keys than live ones the heap drops the
   dead keys and re-heapifies; pop order is the strict (time, seq) order
   either way, equal times included. *)
let test_compaction_keeps_order () =
  let h = V.create () in
  let rng = Random.State.make [| 7 |] in
  let n = 1_000 in
  let handles =
    Array.init n (fun i ->
        let time = float_of_int (Random.State.int rng 50) in
        (time, i, V.push h ~time i))
  in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let cancelled = Array.make n false in
  for c = 0 to 699 do
    let i = order.(c) in
    let _, _, hd = handles.(i) in
    Dsim.Heap.cancel h.V.heap hd;
    cancelled.(i) <- true
  done;
  Alcotest.(check bool) "cancels triggered a compaction" true
    (Dsim.Heap.compactions h.V.heap > 0);
  Alcotest.(check int) "live entries" 300 (Dsim.Heap.length h.V.heap);
  let expected =
    Array.to_list handles
    |> List.filter (fun (_, i, _) -> not cancelled.(i))
    |> List.sort (fun (t1, i1, _) (t2, i2, _) -> compare (t1, i1) (t2, i2))
    |> List.map (fun (_, i, _) -> i)
  in
  Alcotest.(check (list int)) "(time, seq) order" expected (V.drain h)

let prop_drain_sorted =
  QCheck.Test.make ~name:"heap drains in sorted stable order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.) small_int))
    (fun entries ->
      let h = V.create () in
      List.iter (fun (time, v) -> ignore (V.push h ~time v)) entries;
      let rec drain acc =
        match V.pop h with
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
      let h = V.create () in
      let handles =
        List.mapi (fun i time -> (i, V.push h ~time i)) times
      in
      let cancelled =
        List.filter_map
          (fun (i, hd) ->
            if i mod 2 = 0 then begin
              Dsim.Heap.cancel h.V.heap hd;
              Some i
            end
            else None)
          handles
      in
      let out = V.drain h in
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
        Alcotest.test_case "dead lane head after slot reuse" `Quick
          test_dead_lane_head_after_slot_reuse;
        Alcotest.test_case "out-of-order lane append goes to the heap"
          `Quick test_lane_append_out_of_order;
        Alcotest.test_case "pop_if_before semantics" `Quick test_pop_if_before;
        Alcotest.test_case "pop_if_before skips dead roots" `Quick
          test_pop_if_before_skips_dead;
        Alcotest.test_case "rejects NaN time" `Quick test_nan_rejected;
        Alcotest.test_case "compaction keeps pop order" `Quick
          test_compaction_keeps_order;
        QCheck_alcotest.to_alcotest prop_drain_sorted;
        QCheck_alcotest.to_alcotest prop_cancel_half;
      ] );
  ]
