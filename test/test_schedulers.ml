(* Unit tests of the scheduler policies' plans and forced choices. *)

let ctx ?(g_neighbors = [| 1 |]) ?(g'_only = [||]) () =
  {
    Amac.Mac_intf.bc_sender = 0;
    bc_body = 42;
    bc_g_neighbors = g_neighbors;
    bc_g'_only_neighbors = g'_only;
    bc_fack = 10.;
    bc_fprog = 2.;
    bc_rng = Dsim.Rng.create ~seed:0;
    bc_plan = Amac.Mac_intf.create_plan ();
  }

(* [policy]'s plan for [c], written into [c]'s buffer. *)
let plan_for policy c =
  policy.Amac.Mac_intf.pol_plan c;
  c.Amac.Mac_intf.bc_plan

type delivery = { receiver : int; delay : float }

let deliveries plan =
  List.init plan.Amac.Mac_intf.len (fun i ->
      {
        receiver = plan.Amac.Mac_intf.receivers.(i);
        delay = plan.Amac.Mac_intf.delays.(i);
      })

let ack plan = plan.Amac.Mac_intf.ack.(0)

let test_eager_plan () =
  let policy = Amac.Schedulers.eager () in
  let plan = plan_for policy (ctx ~g'_only:[| 2; 3 |] ()) in
  Alcotest.(check bool) "fast ack" true (ack plan <= 2.);
  Alcotest.(check int) "delivers to everyone" 3
    (List.length (deliveries plan));
  List.iter
    (fun d ->
      Alcotest.(check bool) "delivery not after ack" true
        (d.delay <= ack plan))
    (deliveries plan)

let test_adversarial_plan () =
  let policy = Amac.Schedulers.adversarial () in
  let plan = plan_for policy (ctx ~g'_only:[| 2 |] ()) in
  Alcotest.(check (float 1e-9)) "full Fack stall" 10.
    (ack plan);
  Alcotest.(check int) "no voluntary unreliable deliveries" 1
    (List.length (deliveries plan));
  match deliveries plan with
  | [ d ] ->
      Alcotest.(check int) "targets the G-neighbor" 1 d.receiver;
      Alcotest.(check (float 1e-9)) "at the last moment" 10.
        d.delay
  | _ -> Alcotest.fail "unexpected plan"

let test_random_plan_within_bounds () =
  let policy = Amac.Schedulers.random_compliant () in
  for seed = 0 to 20 do
    let c =
      {
        (ctx ~g_neighbors:[| 1; 2 |] ~g'_only:[| 3 |] ()) with
        Amac.Mac_intf.bc_rng = Dsim.Rng.create ~seed;
      }
    in
    let plan = plan_for policy c in
    Alcotest.(check bool) "ack within Fack" true
      (ack plan <= 10. && ack plan > 0.);
    List.iter
      (fun d ->
        Alcotest.(check bool) "delivery in window" true
          (d.delay >= 0.
          && d.delay <= ack plan))
      (deliveries plan);
    (* G-neighbors always covered *)
    List.iter
      (fun g ->
        Alcotest.(check bool) "G-neighbor covered" true
          (List.exists
             (fun d -> d.receiver = g)
             (deliveries plan)))
      [ 1; 2 ]
  done

(* A forced context over [candidates], (body, is_g_neighbor) pairs in
   position order, for a receiver that has [received]. *)
let forced_ctx ~candidates ~received =
  {
    Amac.Mac_intf.fc_count = List.length candidates;
    fc_bodies = Array.of_list (List.map fst candidates);
    fc_is_g_neighbor = Array.of_list (List.map snd candidates);
    fc_has_received = (fun body -> List.mem body received);
    fc_rng = Dsim.Rng.create ~seed:1;
  }

let cand ?(g = true) body = (body, g)

let test_adversarial_forced_prefers_duplicates () =
  let policy = Amac.Schedulers.adversarial () in
  let chosen =
    policy.Amac.Mac_intf.pol_forced
      (forced_ctx
         ~candidates:[ cand 10; cand 20; cand ~g:false 30 ]
         ~received:[ 20 ])
  in
  Alcotest.(check int) "picks the duplicate body's position" 1 chosen

let test_adversarial_forced_prefers_unreliable () =
  let policy = Amac.Schedulers.adversarial () in
  let chosen =
    policy.Amac.Mac_intf.pol_forced
      (forced_ctx ~candidates:[ cand 10; cand ~g:false 20 ] ~received:[])
  in
  Alcotest.(check int) "picks the unreliable sender's position" 1 chosen

let test_adversarial_forced_fallback () =
  let policy = Amac.Schedulers.adversarial () in
  let chosen =
    policy.Amac.Mac_intf.pol_forced
      (forced_ctx ~candidates:[ cand 70; cand 80 ] ~received:[])
  in
  Alcotest.(check int) "the first candidate" 0 chosen

let test_two_line_policy_plan () =
  let d = 6 in
  let policy = Mmb.Lower_bound.two_line_policy ~d in
  (* a_2 (node 1) broadcasting m0 is a frontier broadcast: stall + cross. *)
  let frontier_ctx =
    {
      Amac.Mac_intf.bc_sender = 1;
      bc_body = 0;
      bc_g_neighbors = [| 0; 2 |];
      bc_g'_only_neighbors = [| d + 0; d + 2 |];
      bc_fack = 10.;
      bc_fprog = 1.;
      bc_rng = Dsim.Rng.create ~seed:0;
      bc_plan = Amac.Mac_intf.create_plan ();
    }
  in
  let plan = plan_for policy frontier_ctx in
  Alcotest.(check (float 1e-9)) "frontier stalls Fack" 10.
    (ack plan);
  Alcotest.(check bool) "cross delivery to b_3 at Fprog" true
    (List.exists
       (fun del ->
         del.receiver = d + 2 && del.delay = 1.)
       (deliveries plan));
  (* The same node broadcasting m1 is a non-frontier broadcast: instant. *)
  let other =
    plan_for policy
      { frontier_ctx with bc_body = 1; bc_plan = Amac.Mac_intf.create_plan () }
  in
  Alcotest.(check (float 1e-9)) "non-frontier instant" 0.
    (ack other)

let suite =
  [
    ( "amac.schedulers",
      [
        Alcotest.test_case "eager plan" `Quick test_eager_plan;
        Alcotest.test_case "adversarial plan" `Quick test_adversarial_plan;
        Alcotest.test_case "random plan stays in bounds" `Quick
          test_random_plan_within_bounds;
        Alcotest.test_case "forced: duplicates first" `Quick
          test_adversarial_forced_prefers_duplicates;
        Alcotest.test_case "forced: unreliable second" `Quick
          test_adversarial_forced_prefers_unreliable;
        Alcotest.test_case "forced: fallback" `Quick
          test_adversarial_forced_fallback;
        Alcotest.test_case "two-line adversary plans" `Quick
          test_two_line_policy_plan;
      ] );
  ]
