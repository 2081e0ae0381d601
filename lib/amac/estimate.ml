type t = {
  est_fack : float;
  est_fprog : float;
  acks_observed : int;
  rcvs_observed : int;
}

let progress_ok ~dual ~fprog trace =
  (* Only the progress rule is consulted; the dummy finite fack keeps the
     auditor's numeric tolerance sane while its ack-bound findings are
     ignored. *)
  List.for_all
    (fun v -> v.Compliance.rule <> "progress-bound")
    (Compliance.audit ~dual ~fack:1. ~fprog ~allow_open:true trace)

let estimate ~dual ?(tolerance = 1e-6) trace =
  let bcast_time : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let max_ack = ref 0. and acks = ref 0 and rcvs = ref 0 in
  let t_end = ref 0. in
  Dsim.Trace.iter trace (fun { Dsim.Trace.time; event } ->
      t_end := Float.max !t_end time;
      match event with
      | Dsim.Trace.Bcast { instance; _ } ->
          Hashtbl.replace bcast_time instance time
      | Dsim.Trace.Ack { instance; _ } ->
          incr acks;
          (match Hashtbl.find_opt bcast_time instance with
          | Some t0 -> max_ack := Float.max !max_ack (time -. t0)
          | None -> ())
      | Dsim.Trace.Rcv _ -> incr rcvs
      | _ -> ());
  (* Smallest compliant Fprog by binary search over (0, duration].  The
     predicate is monotone: larger windows are easier to satisfy. *)
  let est_fprog =
    let duration = Float.max !t_end 1e-12 in
    if progress_ok ~dual ~fprog:(tolerance *. duration) trace then 0.
    else if not (progress_ok ~dual ~fprog:duration trace) then duration
    else begin
      let lo = ref (tolerance *. duration) and hi = ref duration in
      while !hi -. !lo > tolerance *. duration do
        (* Not [0.5 *. (lo +. hi)]: past max_float / 2 the sum is
           infinite, and so is every later [hi -. lo]. *)
        let mid = !lo +. (0.5 *. (!hi -. !lo)) in
        if progress_ok ~dual ~fprog:mid trace then hi := mid else lo := mid
      done;
      !hi
    end
  in
  { est_fack = !max_ack; est_fprog; acks_observed = !acks; rcvs_observed = !rcvs }
[@@mmb.alloc_ok "post-run trace estimation, never on the per-event path"]

let pp ppf t =
  Fmt.pf ppf "Fack>=%.3f Fprog>=%.3f (from %d acks, %d rcvs)" t.est_fack
    t.est_fprog t.acks_observed t.rcvs_observed
