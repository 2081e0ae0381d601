(* Host-side instruments.  Nothing here feeds back into a simulation:
   wall time and allocation are only observed from outside the library
   calls being measured.

   - Time is the monotonic clock (CLOCK_MONOTONIC via bechamel), never
     Sys.time: process CPU time sums over domains, so a two-domain run
     would read as at least as slow as a one-domain run.
   - Allocation is Gc.quick_stat's minor_words.  On OCaml 5 it adds the
     counts of domains that have already terminated, so it covers the
     pdes workers once they are joined; Gc.minor_words counts the calling
     domain only.
   - Host speed is the time of [reference_work], below. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The calling domain's share only reaches quick_stat at a minor
   collection, so force one first; callers read this outside timed
   intervals. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* The yardstick: a fixed piece of work, the same on every run and every
   commit, that calls nothing under lib/, so no change to the simulator
   can move it.  Timed next to each sample, it tells how fast the host
   was just then (Measure).  It takes about 40 ms on a quiet host, half
   in each of two parts.  Each part alone followed the host's drift
   less well than the two together: the tree slowed less than the
   simulator runs when the host slowed, the ring more (README.md,
   "Noise"). *)
module Imap = Map.Make (Int)

(* Small allocations, pointer chasing through a balanced tree of up to
   16,384 keys, integer compares. *)
let tree_work () =
  let keys = 1 lsl 14 in
  let state = ref 0x2545f491 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let m = ref Imap.empty in
  for i = 1 to keys do
    m := Imap.add (next () land 0xfffff) i !m
  done;
  let found = ref 0 in
  for _ = 1 to 4 * keys do
    match Imap.find_opt (next () land 0xfffff) !m with
    | Some v -> found := !found + v
    | None -> ()
  done;
  ignore (Sys.opaque_identity (!found, Imap.cardinal !m))

type cell = { key : int; weight : float }

(* Records kept reachable from an array of 65,536 slots and replaced in
   a scattered order, as pending events are in the simulator's heap:
   minor collections promote them, the major collector marks and sweeps
   them. *)
let ring_work () =
  let slots = Array.make (1 lsl 16) None in
  let sum = ref 0 in
  for i = 1 to 400_000 do
    let j = (i * 40503) land 0xffff in
    (match slots.(j) with Some c -> sum := !sum + c.key | None -> ());
    slots.(j) <- Some { key = i; weight = float_of_int i }
  done;
  ignore (Sys.opaque_identity (!sum, slots))

let reference_work () =
  tree_work ();
  ring_work ()

(* VmHWM of this process in MiB, from /proc/self/status; 0 when the file
   or the field is missing (non-Linux hosts). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line -> (
            match String.split_on_char ':' line with
            | [ "VmHWM"; rest ] -> (
                match
                  String.split_on_char ' ' (String.trim rest)
                  |> List.filter (fun s -> s <> "")
                with
                | kb :: _ -> float_of_string kb /. 1024.
                | [] -> 0.)
            | _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan
