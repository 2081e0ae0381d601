(* Binary min-heap over (time, seq) keys that orders slots; the caller
   keeps each entry's payload by slot.  An entry lives in a slot,
   recycled through a free-slot stack; its handle is an immediate int
   packing (seq, slot), seq in the high bits.  By heap position we keep
   [times] (unboxed floats) and [keys] (handles): seqs are unique and sit
   above the slot, so comparing two keys as ints compares their seqs,
   and a sift chases no pointer.  By slot we keep [occupant], the handle
   of the slot's live entry or [free_mark].

   So [push] allocates nothing once the arrays have grown, and a handle
   is live iff its slot's occupant is that handle.  A slot is freed as
   soon as its entry is popped or cancelled; a stale handle then no
   longer matches the occupant, so cancelling it is a no-op even after
   the slot is reused.  A cancelled entry's key stays in [keys] until it
   surfaces at the root, where the one shared drain ([drop_dead])
   discards it, or until dead keys outnumber live ones and [compact]
   drops them all; [live] counts only live entries, so [length] is
   exact. *)

type handle = int

let slot_bits = 28
let slot_mask = (1 lsl slot_bits) - 1

(* Handles are non-negative, so seq has 62 - [slot_bits] bits.  -1 marks
   a free slot in [occupant] and is the handle of no entry. *)
let max_seq = (1 lsl (62 - slot_bits)) - 1
let free_mark = -1
let none = free_mark
let slot h = h land slot_mask

type t = {
  mutable times : float array; (* times.(i) keys keys.(i) *)
  mutable keys : int array; (* handle of the entry at heap position i *)
  mutable size : int; (* used heap positions, including dead entries *)
  mutable occupant : int array; (* by slot: live handle, or [free_mark] *)
  mutable slots : int; (* slots ever allocated *)
  mutable free : int array; (* stack of freed slots *)
  mutable n_free : int;
  mutable live : int; (* live (pending, non-cancelled) entries *)
  mutable next_seq : int;
  mutable high_water : int; (* max [live] ever observed *)
  mutable n_cancelled : int; (* entries cancelled while still live *)
  mutable n_compactions : int;
}

let create () =
  { times = [||]; keys = [||]; size = 0; occupant = [||]; slots = 0;
    free = [||]; n_free = 0; live = 0; next_seq = 0; high_water = 0;
    n_cancelled = 0; n_compactions = 0 }

let length t = t.live
let is_empty t = t.live = 0
let high_water t = t.high_water
let pushes t = t.next_seq
let cancelled t = t.n_cancelled
let compactions t = t.n_compactions

let grown a fill =
  let cap = Array.length a in
  let a' = Array.make (if cap = 0 then 16 else 2 * cap) fill in
  Array.blit a 0 a' 0 cap;
  a'

(* Hole-based sifts: the moving (time, key) pair is read from the arrays
   into registers (a float argument would be boxed) and written once at
   its final position, instead of swapping pairwise. *)

(* Sift the entry at position [j] up. *)
let sift_up t j =
  let times = t.times and keys = t.keys in
  let time = times.(j) and key = keys.(j) in
  let i = ref j in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && key < keys.(parent)) then begin
      times.(!i) <- pt;
      keys.(!i) <- keys.(parent);
      i := parent
    end
    else stop := true
  done;
  times.(!i) <- time;
  keys.(!i) <- key

(* Bottom-up sift-down over the first [n] positions: the hole at [top]
   walks down to a leaf, each level moving the smaller child up, picked
   by arithmetic on the two comparisons rather than a branch; then the
   entry read from position [src] goes into the hole and sifts up, never
   above [top].  The entry a pop re-inserts is the last one, nearly
   always a leaf's worth of large, so the sift-up seldom moves and a
   level costs one comparison instead of two. *)
let sift_down t ~top ~n ~src =
  let times = t.times and keys = t.keys in
  let time = times.(src) and key = keys.(src) in
  let hole = ref top in
  let l = ref ((2 * top) + 1) in
  (* Both children of the hole are in [0, n) while [l + 1 < n], and
     every index below is a child or the hole itself. *)
  while !l + 1 < n do
    let l0 = !l in
    let r = l0 + 1 in
    let tl = Array.unsafe_get times l0 and tr = Array.unsafe_get times r in
    let c =
      l0
      + (Bool.to_int (tr < tl)
        lor (Bool.to_int (tr = tl)
            land Bool.to_int (Array.unsafe_get keys r < Array.unsafe_get keys l0)
            ))
    in
    Array.unsafe_set times !hole (Array.unsafe_get times c);
    Array.unsafe_set keys !hole (Array.unsafe_get keys c);
    hole := c;
    l := (2 * c) + 1
  done;
  if !l < n then begin
    (* A lone left child, the last position. *)
    times.(!hole) <- times.(!l);
    keys.(!hole) <- keys.(!l);
    hole := !l
  end;
  let i = ref !hole in
  let stop = ref false in
  while (not !stop) && !i > top do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && key < keys.(parent)) then begin
      times.(!i) <- pt;
      keys.(!i) <- keys.(parent);
      i := parent
    end
    else stop := true
  done;
  times.(!i) <- time;
  keys.(!i) <- key

(* A free slot: the most recently freed one, else a fresh one. *)
let take_slot t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end
  else begin
    let slot = t.slots in
    if slot > slot_mask then
      invalid_arg "Heap.push: more than 2^28 live entries overflow the handle";
    if slot = Array.length t.occupant then begin
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

(* Claim a slot and a key for a new entry at the end of the heap; the
   caller writes its time there and sifts it up. *)
let append t =
  if t.next_seq > max_seq then
    invalid_arg "Heap.push: more than 2^34 pushes overflow the handle";
  let slot = take_slot t in
  let key = (t.next_seq lsl slot_bits) lor slot in
  t.next_seq <- t.next_seq + 1;
  t.occupant.(slot) <- key;
  if t.size = Array.length t.keys then begin
    t.times <- grown t.times 0.;
    t.keys <- grown t.keys key
  end;
  t.keys.(t.size) <- key;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  key

(* Inlined into both pushes, so [push_after]'s sum is never boxed. *)
let[@inline] insert t time =
  if Float.is_nan time then invalid_arg "Heap.push: NaN time";
  let key = append t in
  let j = t.size - 1 in
  t.times.(j) <- time;
  sift_up t j;
  key

let push t ~time = insert t time
let push_after t ~now ~delay = insert t (now.(0) +. delay)

(* Drop every dead key and re-heapify bottom-up (Floyd).  Run once dead
   keys outnumber live ones, so its O(size) cost is paid for by the
   cancels that made more than half the keys dead. *)
let compact t =
  let times = t.times and keys = t.keys and occupant = t.occupant in
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    let key = keys.(i) in
    if occupant.(key land slot_mask) = key then begin
      times.(!n) <- times.(i);
      keys.(!n) <- key;
      incr n
    end
  done;
  let n = !n in
  t.size <- n;
  for i = (n / 2) - 1 downto 0 do
    sift_down t ~top:i ~n ~src:i
  done;
  t.n_compactions <- t.n_compactions + 1

let cancel t h =
  if h >= 0 then begin
    let slot = h land slot_mask in
    if t.occupant.(slot) = h then begin
      release t slot;
      t.n_cancelled <- t.n_cancelled + 1;
      if t.size - t.live > t.live then compact t
    end
  end

let remove_root t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t ~top:0 ~n:last ~src:last

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
  slot

let min_time t =
  drop_dead t;
  if t.size = 0 then infinity else t.times.(0)

let pop_until t ~until ~time =
  drop_dead t;
  if t.size = 0 then -1
  else begin
    let root = t.times.(0) in
    if root > until then -1
    else begin
      time.(0) <- root;
      take_root t
    end
  end
