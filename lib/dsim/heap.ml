(* Binary min-heap over (time, seq) keys, with every entry's state in
   flat arrays.  An entry lives in a slot, recycled through a free-slot
   stack; its handle is an immediate int packing (seq, slot), seq in the
   high bits.  By heap position we keep [times] (unboxed floats) and
   [keys] (handles): seqs are unique and sit above the slot, so comparing
   two keys as ints compares their seqs, and a sift chases no pointer.
   By slot we keep [values] and [occupant], the handle of the slot's live
   entry or [free_mark].

   So [push] allocates nothing once the arrays have grown, and a handle
   is live iff its slot's occupant is that handle.  A slot is freed as
   soon as its entry is popped or cancelled; a stale handle then no
   longer matches the occupant, so cancelling it is a no-op even after
   the slot is reused.  A cancelled entry's key stays in [keys] until it
   surfaces at the root, where the one shared drain ([drop_dead])
   discards it; [live] counts only live entries, so [length] is exact.

   Freed slots keep their last payload until a push reuses them, so at
   most [high_water] stale payloads linger: clearing them would cost a
   write barrier per pop, and heaps die with their simulation. *)

type 'a handle = int

let slot_bits = 28
let slot_mask = (1 lsl slot_bits) - 1

(* Handles are non-negative, so seq has 62 - [slot_bits] bits.  -1 marks
   a free slot in [occupant] and is the handle of no entry. *)
let max_seq = (1 lsl (62 - slot_bits)) - 1
let free_mark = -1
let none = free_mark

type 'a t = {
  mutable times : float array; (* times.(i) keys keys.(i) *)
  mutable keys : int array; (* handle of the entry at heap position i *)
  mutable size : int; (* used heap positions, including dead entries *)
  mutable values : 'a array; (* by slot *)
  mutable occupant : int array; (* by slot: live handle, or [free_mark] *)
  mutable slots : int; (* slots ever allocated *)
  mutable free : int array; (* stack of freed slots *)
  mutable n_free : int;
  mutable live : int; (* live (pending, non-cancelled) entries *)
  mutable next_seq : int;
  mutable high_water : int; (* max [live] ever observed *)
  mutable n_cancelled : int; (* entries cancelled while still live *)
}

let create () =
  { times = [||]; keys = [||]; size = 0; values = [||]; occupant = [||];
    slots = 0; free = [||]; n_free = 0; live = 0; next_seq = 0;
    high_water = 0; n_cancelled = 0 }

let length t = t.live
let is_empty t = t.live = 0
let high_water t = t.high_water
let pushes t = t.next_seq
let cancelled t = t.n_cancelled

let grown a fill =
  let cap = Array.length a in
  let a' = Array.make (if cap = 0 then 16 else 2 * cap) fill in
  Array.blit a 0 a' 0 cap;
  a'

(* Hole-based sifts: carry the moving (time, key) pair in registers and
   write them once at their final position, instead of swapping
   pairwise. *)
let sift_up t start time key =
  let i = ref start in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = t.times.(parent) in
    if time < pt || (time = pt && key < t.keys.(parent)) then begin
      t.times.(!i) <- pt;
      t.keys.(!i) <- t.keys.(parent);
      i := parent
    end
    else stop := true
  done;
  t.times.(!i) <- time;
  t.keys.(!i) <- key

(* Sift the entry at position [t.size] (the last one, just cut off) down
   from the root.  It is read here, not passed in: a float argument
   would be boxed. *)
let sift_down t =
  let n = t.size in
  let time = t.times.(n) and key = t.keys.(n) in
  let i = ref 0 in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    if l >= n then stop := true
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (t.times.(r) < t.times.(l)
             || (t.times.(r) = t.times.(l) && t.keys.(r) < t.keys.(l)))
        then r
        else l
      in
      let ct = t.times.(c) in
      if ct < time || (ct = time && t.keys.(c) < key) then begin
        t.times.(!i) <- ct;
        t.keys.(!i) <- t.keys.(c);
        i := c
      end
      else stop := true
    end
  done;
  t.times.(!i) <- time;
  t.keys.(!i) <- key

(* A slot for [value]: the most recently freed one, else a fresh one.
   Growing fills the new slots with [value] itself, so no sentinel
   payload is ever needed. *)
let take_slot t value =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end
  else begin
    let slot = t.slots in
    if slot > slot_mask then
      invalid_arg "Heap.push: more than 2^28 live entries overflow the handle";
    if slot = Array.length t.values then begin
      t.values <- grown t.values value;
      t.occupant <- grown t.occupant free_mark;
      t.free <- grown t.free 0
    end;
    t.slots <- slot + 1;
    slot
  end

let release t slot =
  t.occupant.(slot) <- free_mark;
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1;
  t.live <- t.live - 1

let push t ~time value =
  if Float.is_nan time then invalid_arg "Heap.push: NaN time";
  if t.next_seq > max_seq then
    invalid_arg "Heap.push: more than 2^34 pushes overflow the handle";
  let slot = take_slot t value in
  let key = (t.next_seq lsl slot_bits) lor slot in
  t.next_seq <- t.next_seq + 1;
  t.values.(slot) <- value;
  t.occupant.(slot) <- key;
  if t.size = Array.length t.keys then begin
    t.times <- grown t.times time;
    t.keys <- grown t.keys key
  end;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  sift_up t (t.size - 1) time key;
  key

let cancel t h =
  if h >= 0 then begin
    let slot = h land slot_mask in
    if t.occupant.(slot) = h then begin
      release t slot;
      t.n_cancelled <- t.n_cancelled + 1
    end
  end

let remove_root t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t

(* The one dead-entry drain, shared by every read of the root. *)
let rec drop_dead t =
  if t.size > 0 then begin
    let key = t.keys.(0) in
    if t.occupant.(key land slot_mask) <> key then begin
      remove_root t;
      drop_dead t
    end
  end

(* Pop the (live) root and free its slot. *)
let take_root t =
  let slot = t.keys.(0) land slot_mask in
  remove_root t;
  release t slot;
  t.values.(slot)

let pop t =
  drop_dead t;
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    Some (time, take_root t)
  end

let peek_time t =
  drop_dead t;
  if t.size = 0 then None else Some t.times.(0)

type 'a next = Empty | Later of float | Due of float * 'a

let pop_if_before ?horizon t =
  drop_dead t;
  if t.size = 0 then Empty
  else begin
    let time = t.times.(0) in
    match horizon with
    | Some h when time > h -> Later time
    | _ -> Due (time, take_root t)
  end
