(* Domain worker pool.

   [run ~jobs ~tasks f] applies [f] to every index in [0, tasks), fanning
   the indices across at most [jobs] domains (the calling domain works
   too).  Indices are handed out through a single atomic counter, so the
   pool load-balances irregular task costs; callers that need ordered
   results write into per-index slots and read them after [run] returns
   ([Domain.join] publishes the writes).

   This module is the only place in the tree that may touch Domain /
   Mutex / Atomic (lint D6): determinism elsewhere is enforced by keeping
   parallel primitives out of simulation code entirely.  While workers
   run, {!Obs.Global} is redirected to a domain-local registry so each
   worker accumulates engine counters privately; the campaign reads each
   job's delta inside the job. *)

let obs_key : Obs.Global.snap ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref Obs.Global.zero)

let with_local_registries f =
  Obs.Global.set_resolver (fun () -> Domain.DLS.get obs_key);
  Fun.protect ~finally:Obs.Global.clear_resolver f

let run ~jobs ~tasks f =
  if tasks <= 0 then ()
  else if jobs <= 1 || tasks = 1 then
    (* Serial path: same per-job registry isolation, no domains at all
       (so [--jobs 1] is exactly the sequential execution). *)
    with_local_registries (fun () ->
        for i = 0 to tasks - 1 do
          f i
        done)
  else
    with_local_registries (fun () ->
        let next = Atomic.make 0 in
        let worker () =
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < tasks then begin
              f i;
              loop ()
            end
          in
          loop ()
        in
        let spawned =
          List.init (min jobs tasks - 1) (fun _ -> Domain.spawn worker)
        in
        worker ();
        List.iter Domain.join spawned)

let self_index () = (Domain.self () :> int)

let available_parallelism () = max 1 (Domain.recommended_domain_count ())

let resolve_jobs ~requested =
  let avail = available_parallelism () in
  if requested <= 0 then avail else min requested avail
