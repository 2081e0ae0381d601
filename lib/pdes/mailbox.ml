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

let drain t ~dst =
  let parts = Array.length t.boxes in
  let tagged = ref [] in
  for src = parts - 1 downto 0 do
    let box = t.boxes.(src).(dst) in
    if box <> [] then begin
      t.boxes.(src).(dst) <- [];
      t.drained <- t.drained + List.length box;
      (* Prepending a reversed box keeps append order within the pair
         and ascending [src] across pairs. *)
      tagged :=
        List.rev_append box []
        |> List.map (fun e -> (src, e))
        |> fun l -> l @ !tagged
    end
  done;
  (* Stable sort on time alone preserves the (src, append-order) ties. *)
  List.stable_sort (fun (_, a) (_, b) -> Float.compare a.time b.time) !tagged
  |> List.map snd
