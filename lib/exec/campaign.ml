(* Campaign runner: fan a job list across a domain pool, with a
   content-addressed result cache that doubles as the checkpoint.

   The load-bearing property is the deterministic merge: outcomes are
   returned (and their report text replayed) strictly in job-index order,
   and each job's engine delta is measured against a registry reset at
   job start, so aggregate output is byte-identical no matter how many
   workers ran or which worker executed which job.

   A job's result comes from the cache (any previous campaign that ran the
   same cell, killed or finished) or from execution on the pool.  Executed
   jobs are stored as they finish, so a kill at any point loses at most
   the jobs in flight. *)

type source = Ran | Cached

type outcome = {
  index : int;
  digest : string;
  result : Dsim.Json.t;  (** the job's returned value *)
  output : string;  (** report text the job emitted through {!Sink} *)
  engine : Obs.Global.snap;  (** engine-counter delta attributable to the job *)
  wall_s : float;  (** injected-clock seconds (0 without a [clock]) *)
  t_start : float;  (** injected-clock start time (0 for replayed jobs) *)
  worker : int;  (** domain that ran the job; -1 for replayed jobs *)
  source : source;
}

type stats = {
  total : int;
  ran : int;
  cached : int;
  cache_hits : int;
  cache_misses : int;
  busy_s : float;  (** summed wall_s of executed jobs *)
  elapsed_s : float;  (** injected-clock span of the whole campaign *)
}

(* --- Replayable cache entry ---------------------------------------------- *)

let entry_of ~spec ~result ~output ~engine ~wall_s =
  Dsim.Json.Obj
    [
      ("spec", spec);
      ("result", result);
      ("output", Dsim.Json.String output);
      ("engine", Obs.Global.snap_to_json engine);
      ("wall_s", Dsim.Json.Number wall_s);
    ]

let decode_entry ~index ~digest json =
  let ( let* ) = Option.bind in
  let* result = Dsim.Json.member_opt json "result" in
  let* output =
    match Dsim.Json.member_opt json "output" with
    | Some (Dsim.Json.String s) -> Some s
    | _ -> None
  in
  let* engine =
    match Dsim.Json.member_opt json "engine" with
    | Some e -> Result.to_option (Obs.Global.snap_of_json e)
    | None -> None
  in
  let wall_s =
    match Dsim.Json.member_opt json "wall_s" with
    | Some (Dsim.Json.Number w) -> w
    | _ -> 0.
  in
  (* Replayed jobs carry no worker-placement facts: those are wall-clock
     truths of the run that executed them, not of this one. *)
  Some
    { index; digest; result; output; engine; wall_s; t_start = 0.; worker = -1;
      source = Cached }

(* --- The runner ---------------------------------------------------------- *)

let run ?(jobs = 1) ?(salt = "") ?cache ?(clock = fun () -> 0.) job_list =
  let t_begin = clock () in
  let jobs_arr = Array.of_list job_list in
  let n = Array.length jobs_arr in
  let hits0, misses0 =
    match cache with
    | None -> (0, 0)
    | Some c -> (Cache.hits c, Cache.misses c)
  in
  let digests = Array.map (fun j -> Job.digest ~salt j) jobs_arr in
  (* 1. Serve unchanged cells from the content-addressed cache. *)
  let slots : outcome option array =
    Array.init n (fun i ->
        Option.bind cache (fun c ->
            Option.bind (Cache.find c ~digest:digests.(i))
              (decode_entry ~index:i ~digest:digests.(i))))
  in
  let cached =
    Array.fold_left (fun acc s -> if Option.is_some s then acc + 1 else acc) 0
      slots
  in
  (* 2. Execute the rest on the pool, storing each as it finishes. *)
  let pending =
    Array.of_list
      (List.filter (fun i -> slots.(i) = None) (List.init n Fun.id))
  in
  (* The captures below are the pool's sanctioned result pattern:
     [pending]/[jobs_arr] are read-only after this point, and [slots] is
     written at per-task-distinct indices only, published to the caller
     by Domain.join.  No two domains ever touch the same element.  This
     is the one deliberate mutable capture in the tree — keep it that
     way. *)
  (* analysis: allow R2 *)
  Pool.run ~jobs ~tasks:(Array.length pending) (fun slot ->
      let i = pending.(slot) in
      let job = jobs_arr.(i) in
      let t0 = clock () in
      (* The pool gave this domain a private registry; start it from zero
         so the delta below is exactly this job's, independent of which
         worker ran it or what ran before. *)
      Obs.Global.reset ();
      let result, output = Sink.capture job.Job.run in
      let engine = Obs.Global.snapshot () in
      let wall_s = clock () -. t0 in
      slots.(i) <-
        Some
          { index = i; digest = digests.(i); result; output; engine; wall_s;
            t_start = t0; worker = Pool.self_index (); source = Ran };
      Option.iter
        (fun c ->
          Cache.store c ~digest:digests.(i)
            ~disc:(string_of_int (Pool.self_index ()))
            (entry_of ~spec:job.Job.spec ~result ~output ~engine ~wall_s))
        cache);
  let outcomes =
    Array.mapi
      (fun i -> function
        | Some o -> o
        | None ->
            (* Unreachable: every index was cached or executed. *)
            failwith (Printf.sprintf "campaign: job %d has no outcome" i))
      slots
  in
  let cache_hits, cache_misses =
    match cache with
    | None -> (0, 0)
    | Some c -> (Cache.hits c - hits0, Cache.misses c - misses0)
  in
  let busy_s =
    Array.fold_left
      (fun acc o -> if o.source = Ran then acc +. o.wall_s else acc)
      0. outcomes
  in
  ( outcomes,
    { total = n; ran = n - cached; cached; cache_hits; cache_misses; busy_s;
      elapsed_s = clock () -. t_begin } )
