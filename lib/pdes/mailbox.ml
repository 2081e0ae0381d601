type entry = { time : float; node : int; msg : int; inst : int }

(* boxes.(src).(dst) accumulates in reverse append order; [drain]
   re-reverses per pair.  Worker domains touch disjoint [src] rows (and
   [sent] slots) only, and the coordinator drains between windows, so
   the arrays are barrier-synchronized rather than locked. *)
type t = {
  boxes : entry list array array;
  sent : int array; (* entries pushed by each source partition *)
  mutable drained : int; (* coordinator only *)
}

let create ~parts =
  {
    boxes = Array.init parts (fun _ -> Array.make parts []);
    sent = Array.make parts 0;
    drained = 0;
  }

(* No shared counter here: [push] runs concurrently on worker domains,
   each writing only its own source's row and [sent] slot. *)
let push t ~src ~dst entry =
  t.boxes.(src).(dst) <- entry :: t.boxes.(src).(dst);
  t.sent.(src) <- t.sent.(src) + 1

let pushed t = Array.fold_left ( + ) 0 t.sent

let pending t = pushed t > t.drained

(* Sources are visited in descending order and each box, newest first,
   is reversed onto the front of the result, which leaves it in
   (source, append order) order; the stable sort on time keeps those
   ties.  A destination nothing was sent to costs no allocation. *)
let drain t ~dst =
  let merged = ref [] in
  for src = Array.length t.boxes - 1 downto 0 do
    match t.boxes.(src).(dst) with
    | [] -> ()
    | box ->
        t.boxes.(src).(dst) <- [];
        t.drained <- t.drained + List.length box;
        merged := List.rev_append box !merged
  done;
  match !merged with
  | [] -> []
  | merged -> List.stable_sort (fun a b -> Float.compare a.time b.time) merged
