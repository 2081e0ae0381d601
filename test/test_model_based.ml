(* Model-based property tests: the event heap and the simulator against
   trivially-correct reference implementations driven by random operation
   sequences. *)

(* --- Heap vs sorted-list reference ----------------------------------------- *)

type op =
  | Push of float
  | Push_after of float
  | Pop
  | Cancel of int
  | Peek
  | Pop_before of float
  | Cancel_half

(* Discrete times (0..5) appear alongside continuous ones so equal-time
   collisions — where only the seq tiebreak orders entries — are common,
   and Pop_before horizons often land exactly on an entry's time (the
   at-the-horizon boundary must pop). *)
let time_gen =
  QCheck.Gen.(
    oneof
      [ float_bound_exclusive 1000.; map float_of_int (int_bound 5) ])

(* Delays for [Push_after]: about half from a few constants, which
   repeat and so go to the heap's lanes, the rest fresh random values,
   which stay in the heap. *)
let delay_gen =
  QCheck.Gen.(
    oneof [ oneofl [ 0.; 0.5; 1.; 100. ]; float_bound_exclusive 200. ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> Push t) time_gen);
        (3, map (fun d -> Push_after d) delay_gen);
        (3, return Pop);
        (2, map (fun i -> Cancel i) (int_bound 50));
        (2, return Peek);
        (2, map (fun t -> Pop_before t) time_gen);
      ])

let op_print = function
  | Push t -> Printf.sprintf "Push %.3f" t
  | Push_after d -> Printf.sprintf "Push_after %.3f" d
  | Pop -> "Pop"
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Peek -> "Peek"
  | Pop_before t -> Printf.sprintf "Pop_before %.3f" t
  | Cancel_half -> "Cancel_half"

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 60) op_gen)

(* Cancel-heavy sequences, up to 1,000 ops.  [Cancel_half] cancels more
   than half of the live entries, which leaves more dead keys than live
   ones, so the heap compacts (drops its dead keys and re-heapifies)
   between the ops that check its order.  Each sequence ends with one,
   over at least two live entries, so every sequence compacts. *)
let cancel_heavy_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(
      map
        (fun ops -> ops @ [ Push 1.; Push 2.; Cancel_half ])
        (list_size (int_range 200 1_000)
           (frequency
              [
                (4, map (fun t -> Push t) time_gen);
                (3, map (fun d -> Push_after d) delay_gen);
                (4, map (fun i -> Cancel i) (int_bound 50));
                (1, return Cancel_half);
                (3, return Pop);
                (1, return Peek);
                (2, map (fun t -> Pop_before t) time_gen);
              ])))

(* Lane-heavy sequences, up to 200 ops.  Each starts with the same
   constant delay twice, which opens a lane (a delay opens one when it
   repeats the last delay pushed outside a lane), and goes on with
   mostly [Push_after]s: cancels then hit lane entries and the lanes'
   first entries, and the clock, moved only by pops, goes back whenever
   an explicit [Push] before it pops. *)
let lane_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(
      map2
        (fun d ops -> Push_after d :: Push_after d :: ops)
        (oneofl [ 0.; 0.5; 1.; 100. ])
        (list_size (int_range 0 200)
           (frequency
              [
                (1, map (fun t -> Push t) time_gen);
                (6, map (fun d -> Push_after d) delay_gen);
                (3, map (fun i -> Cancel i) (int_bound 80));
                (3, return Pop);
                (1, return Peek);
                (2, map (fun t -> Pop_before t) time_gen);
              ])))

(* Reference: a list of (time, seq, value) alive entries; sorting under
   polymorphic compare orders by (time, seq), the heap's key.  The heap
   orders slots, so the model keeps each entry's value by slot (as
   Dsim.Sim keeps payloads) and reads popped values from there.  [cell]
   is the clock, as in Dsim.Sim: a pop writes its time there, and
   [Push_after d] pushes at the clock plus [d].  Returns whether the
   heap matched, and how often it compacted. *)
let run_heap_model ops =
  let heap = Dsim.Heap.create () in
  let values = Array.make 4096 (-1) (* by slot; >= the ops per sequence *) in
  let cell = [| 0. |] in
  let reference = ref [] (* (time, seq, value) alive entries *) in
  let handles = ref [] (* (op_index, handle, time, seq) *) in
  let seq = ref 0 in
  let eff_cancels = ref 0 in
  let ok = ref true in
  List.iteri
    (fun _ op ->
      match op with
      | Push t ->
          let h = Dsim.Heap.push heap ~time:t in
          values.(Dsim.Heap.slot h) <- !seq;
          handles := (List.length !handles, h, t, !seq) :: !handles;
          reference := (t, !seq, !seq) :: !reference;
          incr seq
      | Push_after d ->
          let t = cell.(0) +. d in
          let h = Dsim.Heap.push_after heap ~now:cell ~delays:[| d |] ~at:0 in
          values.(Dsim.Heap.slot h) <- !seq;
          handles := (List.length !handles, h, t, !seq) :: !handles;
          reference := (t, !seq, !seq) :: !reference;
          incr seq
      | Pop -> (
          let expected =
            List.sort compare !reference |> function
            | [] -> None
            | (t, s, v) :: _ ->
                reference := List.filter (fun (_, s', _) -> s' <> s) !reference;
                Some (t, v)
          in
          match (Dsim.Heap.pop_until heap ~until:infinity ~time:cell, expected) with
          | -1, None -> ()
          | slot, Some (t', v') when slot >= 0 ->
              if not (cell.(0) = t' && values.(slot) = v') then ok := false
          | _ -> ok := false)
      | Cancel_half ->
          (* The oldest live entry, every other one after it, and the
             second oldest: more than half of them. *)
          let by_seq =
            List.sort (fun (_, a, _) (_, b, _) -> compare a b) !reference
          in
          List.iteri
            (fun i (_, s, _) ->
              if i mod 2 = 0 || i = 1 then begin
                let _, h, _, _ =
                  List.find (fun (_, _, _, s') -> s' = s) !handles
                in
                Dsim.Heap.cancel heap h;
                reference := List.filter (fun (_, s', _) -> s' <> s) !reference;
                incr eff_cancels
              end)
            by_seq
      | Cancel i -> (
          (* [handles] also holds popped and already-cancelled entries,
             so this op exercises cancel-of-popped / double-cancel; the
             reference filter no-ops exactly when the heap must. *)
          match List.nth_opt !handles i with
          | None -> ()
          | Some (_, h, _, s) ->
              Dsim.Heap.cancel heap h;
              let before = List.length !reference in
              reference := List.filter (fun (_, s', _) -> s' <> s) !reference;
              if List.length !reference < before then incr eff_cancels)
      | Peek ->
          let expected =
            match List.sort compare !reference with
            | [] -> infinity
            | (t, _, _) :: _ -> t
          in
          if Dsim.Heap.min_time heap <> expected then ok := false
      | Pop_before horizon -> (
          let expected =
            match List.sort compare !reference with
            | [] -> `Empty
            | (t, s, v) :: _ ->
                if t > horizon then `Later t
                else begin
                  reference :=
                    List.filter (fun (_, s', _) -> s' <> s) !reference;
                  `Due (t, v)
                end
          in
          match (Dsim.Heap.pop_until heap ~until:horizon ~time:cell, expected) with
          | -1, `Empty -> if not (Dsim.Heap.is_empty heap) then ok := false
          | -1, `Later t ->
              if Dsim.Heap.min_time heap <> t then ok := false
          | slot, `Due (t, v) when slot >= 0 ->
              if not (cell.(0) = t && values.(slot) = v) then ok := false
          | _ -> ok := false))
    ops;
  if Dsim.Heap.length heap <> List.length !reference then ok := false;
  (* Cancels of popped/dead entries must not inflate the counter. *)
  if Dsim.Heap.cancelled heap <> !eff_cancels then ok := false;
  if Dsim.Heap.pushes heap <> !seq then ok := false;
  (* Whatever is left pops in (time, seq) order. *)
  List.iter
    (fun (t, _, v) ->
      let slot = Dsim.Heap.pop_until heap ~until:infinity ~time:cell in
      if not (slot >= 0 && cell.(0) = t && values.(slot) = v) then ok := false)
    (List.sort compare !reference);
  if Dsim.Heap.pop_until heap ~until:infinity ~time:cell <> -1 then ok := false;
  (!ok, Dsim.Heap.compactions heap)

let prop_heap_matches_reference =
  QCheck.Test.make ~name:"heap behaves like a sorted-list reference model"
    ~count:300 arbitrary_ops
    (fun ops -> fst (run_heap_model ops))

let prop_heap_lanes_match_reference =
  QCheck.Test.make
    ~name:"heap with lanes behaves like a sorted-list reference model"
    ~count:300 lane_ops
    (fun ops -> fst (run_heap_model ops))

(* Every cancel-heavy sequence must also have compacted at least once:
   otherwise this property would not test compaction at all. *)
let prop_heap_compacts_like_reference =
  QCheck.Test.make
    ~name:"heap matches the reference through compactions" ~count:100
    cancel_heavy_ops
    (fun ops ->
      let ok, compactions = run_heap_model ops in
      ok && compactions > 0)

(* --- Sim vs reference execution order --------------------------------------- *)

let prop_sim_runs_in_timestamp_order =
  QCheck.Test.make
    ~name:"simulator executes events in (time, insertion) order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 40) (float_bound_exclusive 100.))
    (fun times ->
      let sim = Dsim.Sim.create () in
      let log = ref [] in
      List.iteri
        (fun i t ->
          ignore
            (Dsim.Sim.schedule_at sim ~time:t (fun () ->
                 log := (t, i) :: !log)))
        times;
      ignore (Dsim.Sim.run sim);
      let executed = List.rev !log in
      let expected =
        List.mapi (fun i t -> (t, i)) times
        |> List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
      in
      executed = expected)

let prop_sim_nested_events_keep_clock_monotone =
  QCheck.Test.make ~name:"virtual clock never goes backwards" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (float_bound_exclusive 10.))
    (fun delays ->
      let sim = Dsim.Sim.create () in
      let last = ref neg_infinity in
      let monotone = ref true in
      let rec chain = function
        | [] -> ()
        | d :: rest ->
            ignore
              (Dsim.Sim.schedule sim ~delay:d (fun () ->
                   let now = Dsim.Sim.now sim in
                   if now < !last then monotone := false;
                   last := now;
                   chain rest))
      in
      chain delays;
      ignore (Dsim.Sim.run sim);
      !monotone)

(* --- Trace/JSONL round-trip over random traces ------------------------------ *)

let arbitrary_event =
  QCheck.Gen.(
    let node = int_bound 50 and msg = int_bound 50 in
    oneof
      [
        map2 (fun node msg -> Dsim.Trace.Arrive { node; msg }) node msg;
        map2 (fun node msg -> Dsim.Trace.Deliver { node; msg }) node msg;
        map3
          (fun node msg instance -> Dsim.Trace.Bcast { node; msg; instance })
          node msg (int_bound 100);
        map3
          (fun node msg instance -> Dsim.Trace.Rcv { node; msg; instance })
          node msg (int_bound 100);
        map3
          (fun node msg instance -> Dsim.Trace.Ack { node; msg; instance })
          node msg (int_bound 100);
        map3
          (fun node msg instance -> Dsim.Trace.Abort { node; msg; instance })
          node msg (int_bound 100);
      ])

let prop_jsonl_roundtrip =
  QCheck.Test.make ~name:"trace JSONL round-trips arbitrary traces" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 30)
           (pair (float_bound_exclusive 1e6) arbitrary_event)))
    (fun entries ->
      let tr = Dsim.Trace.create () in
      List.iter
        (fun (time, event) -> Dsim.Trace.record tr ~time event)
        (List.sort compare entries);
      match Dsim.Trace_io.of_jsonl (Dsim.Trace_io.to_jsonl tr) with
      | Ok parsed -> parsed = Dsim.Trace.entries tr
      | Error _ -> false)

let suite =
  [
    ( "model-based",
      [
        QCheck_alcotest.to_alcotest prop_heap_matches_reference;
        QCheck_alcotest.to_alcotest prop_heap_lanes_match_reference;
        QCheck_alcotest.to_alcotest prop_heap_compacts_like_reference;
        QCheck_alcotest.to_alcotest prop_sim_runs_in_timestamp_order;
        QCheck_alcotest.to_alcotest prop_sim_nested_events_keep_clock_monotone;
        QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
      ] );
  ]
