(* Binary min-heap over (time, seq) keys that orders slots, plus FIFO
   lanes for repeated delays; the caller keeps each entry's payload by
   slot.  An entry lives in a slot, recycled through a free-slot stack;
   its handle is an immediate int packing (seq, slot), seq in the high
   bits.  By heap position we keep [times] (unboxed floats) and [keys]
   (handles): seqs are unique and sit above the slot, so comparing two
   keys as ints compares their seqs, and a sift chases no pointer.  By
   slot we keep [occupant], the handle of the slot's live entry or
   [free_mark].

   So [push] allocates nothing once the arrays have grown, and a handle
   is live iff its slot's occupant is that handle.  A slot is freed as
   soon as its entry is popped or cancelled; a stale handle then no
   longer matches the occupant, so cancelling it is a no-op even after
   the slot is reused.  A cancelled entry's key stays in [keys] until it
   surfaces at the root, where the one shared drain ([drop_dead])
   discards it, or until dead keys outnumber live ones and [compact]
   drops them all; [live] counts only live entries, so [length] is
   exact.

   Lanes.  Lane [l] (numbered from 1) is a ring of (time, key) pairs,
   [ring_times.(l)] and [ring_keys.(l)], for entries pushed with delay
   [delays.(l)].  A ring is sorted by (time, key): an entry joins a
   non-empty ring only if its time is at least the ring's last one, and
   its seq is the largest yet.  The ring's first entry is also in the
   heap; the rest are not.  So the heap's root is the minimum of every
   stored entry, and popping a lane's first entry puts the lane's next
   live entry in its place at the root (dead entries behind the first
   are skipped there, or dropped by [compact]).  The root belongs to the
   lane whose first key it is, if any: keys are unique, so this holds
   for a dead key too, whatever its slot now holds.  With at most
   [max_lanes] lanes, that is a short scan of [firsts], and a heap with
   no lane open scans nothing.  [delays.(0)] is the last delay pushed
   outside a lane: a delay that repeats it opens a lane. *)

type handle = int

let slot_bits = 28
let slot_mask = (1 lsl slot_bits) - 1

(* Handles are non-negative, so seq has 62 - [slot_bits] bits.  -1 marks
   a free slot in [occupant] and is the handle of no entry. *)
let max_seq = (1 lsl (62 - slot_bits)) - 1
let free_mark = -1
let none = free_mark
let slot h = h land slot_mask

(* Lanes a heap opens at most: one per delay that repeats. *)
let max_lanes = 4

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
  (* By lane, from 1; index 0 of [delays] is the last delay pushed
     outside a lane, and unused in the others, which are empty until a
     lane opens.  A lane's ring holds [ring_len.(l)] entries from
     [ring_head.(l)], its capacity a power of two, and [firsts.(l)] is
     the key of its first entry, or [none] when it is empty. *)
  mutable delays : float array;
  mutable ring_times : float array array;
  mutable ring_keys : int array array;
  mutable ring_head : int array;
  mutable ring_len : int array;
  mutable firsts : int array;
}

let create () =
  { times = [||]; keys = [||]; size = 0; occupant = [||]; slots = 0;
    free = [||]; n_free = 0; live = 0; next_seq = 0; high_water = 0;
    n_cancelled = 0; n_compactions = 0; delays = [| nan |];
    ring_times = [||]; ring_keys = [||]; ring_head = [||]; ring_len = [||];
    firsts = [||] }

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

let[@inline] is_live t key = t.occupant.(key land slot_mask) = key

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

(* Top-down sift of the root: the entry just written there moves down
   while a child is smaller.  A lane's next entry is seldom far from the
   minimum, so this usually stops at the first level, where the
   bottom-up sift would walk to a leaf and back. *)
let sift_root t =
  let times = t.times and keys = t.keys in
  let n = t.size in
  let time = times.(0) and key = keys.(0) in
  let hole = ref 0 in
  let l = ref 1 in
  while !l < n do
    let l0 = !l in
    let r = l0 + 1 in
    let c =
      if r < n then
        let tl = times.(l0) and tr = times.(r) in
        if tr < tl || (tr = tl && keys.(r) < keys.(l0)) then r else l0
      else l0
    in
    let ct = times.(c) in
    if ct < time || (ct = time && keys.(c) < key) then begin
      times.(!hole) <- ct;
      keys.(!hole) <- keys.(c);
      hole := c;
      l := (2 * c) + 1
    end
    else l := n
  done;
  times.(!hole) <- time;
  keys.(!hole) <- key

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

(* Claim a slot and a key for a new entry. *)
let claim t =
  if t.next_seq > max_seq then
    invalid_arg "Heap.push: more than 2^34 pushes overflow the handle";
  let slot = take_slot t in
  let key = (t.next_seq lsl slot_bits) lor slot in
  t.next_seq <- t.next_seq + 1;
  t.occupant.(slot) <- key;
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  key

(* Add [key] at the end of the heap; the caller writes its time there
   and sifts it up. *)
let[@inline] append t key =
  if t.size = Array.length t.keys then begin
    t.times <- grown t.times 0.;
    t.keys <- grown t.keys key
  end;
  t.keys.(t.size) <- key;
  t.size <- t.size + 1

(* Inlined into both pushes, so [push_after]'s sum is never boxed. *)
let[@inline] insert t time =
  let key = claim t in
  append t key;
  let j = t.size - 1 in
  t.times.(j) <- time;
  sift_up t j;
  key

let push t ~time =
  if Float.is_nan time then invalid_arg "Heap.push: NaN time";
  insert t time

(* Double lane [l]'s full ring, unwrapping it to start at 0. *)
let grow_ring t l =
  let times = t.ring_times.(l) and keys = t.ring_keys.(l) in
  let cap = Array.length keys and head = t.ring_head.(l) in
  let times' = Array.make (2 * cap) 0. and keys' = Array.make (2 * cap) 0 in
  let first = cap - head in
  Array.blit times head times' 0 first;
  Array.blit keys head keys' 0 first;
  Array.blit times 0 times' first head;
  Array.blit keys 0 keys' first head;
  t.ring_times.(l) <- times';
  t.ring_keys.(l) <- keys';
  t.ring_head.(l) <- 0

(* Add a lane for [delays.(0)], the delay just repeated, and return its
   number.  Its ring is the only lane storage, so a heap whose delays
   never repeat allocates none. *)
let open_lane t =
  let l = Array.length t.delays in
  let widen a fill =
    let a' = Array.make (l + 1) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.delays <- widen t.delays t.delays.(0);
  t.ring_times <- widen t.ring_times (Array.make 16 0.);
  t.ring_keys <- widen t.ring_keys (Array.make 16 0);
  t.ring_head <- widen t.ring_head 0;
  t.ring_len <- widen t.ring_len 0;
  t.firsts <- widen t.firsts none;
  l

(* Push an entry at [time] to the tail of lane [l]; the caller checked
   that no entry of the ring is later.  The first entry of an empty ring
   goes into the heap as well. *)
let[@inline] lane_push t l time =
  let len = t.ring_len.(l) in
  let key =
    if len = 0 then begin
      let key = insert t time in
      t.firsts.(l) <- key;
      key
    end
    else claim t
  in
  if len = Array.length t.ring_keys.(l) then grow_ring t l;
  let keys = t.ring_keys.(l) in
  let i = (t.ring_head.(l) + len) land (Array.length keys - 1) in
  t.ring_times.(l).(i) <- time;
  keys.(i) <- key;
  t.ring_len.(l) <- len + 1;
  key

let push_after t ~now ~delays:cells ~at =
  let delay = cells.(at) in
  let time = now.(0) +. delay in
  if Float.is_nan time then invalid_arg "Heap.push: NaN time";
  (* The lane of [delay], or the number of lanes plus one. *)
  let delays = t.delays in
  let l = ref 1 in
  while !l < Array.length delays && delays.(!l) <> delay do
    incr l
  done;
  let l = !l in
  if l < Array.length delays then begin
    let len = t.ring_len.(l) in
    let keys = t.ring_keys.(l) in
    if
      len = 0
      || time >= t.ring_times.(l).((t.ring_head.(l) + len - 1)
                                   land (Array.length keys - 1))
    then lane_push t l time
    else insert t time
  end
  else if delay = delays.(0) && l <= max_lanes then
    lane_push t (open_lane t) time
  else begin
    delays.(0) <- delay;
    insert t time
  end

(* The lane whose first entry is [key], or 0 when there is none: then it
   is a heap entry. *)
let[@inline] lane_first t key =
  let firsts = t.firsts in
  let l = ref 1 in
  while !l < Array.length firsts && firsts.(!l) <> key do
    incr l
  done;
  if !l < Array.length firsts then !l else 0

(* Entries the lanes hold beyond their first ones, which are in the
   heap. *)
let lane_extra t =
  let extra = ref 0 in
  for l = 1 to Array.length t.ring_len - 1 do
    if t.ring_len.(l) > 1 then extra := !extra + t.ring_len.(l) - 1
  done;
  !extra

(* Drop every dead key and re-heapify bottom-up (Floyd).  Run once dead
   keys outnumber live ones, so its O(size) cost is paid for by the
   cancels that made more than half the keys dead.  Each ring keeps its
   live entries in order; a ring whose first entry was dead puts its new
   first entry in the heap, in the position the dead one left. *)
let compact t =
  let times = t.times and keys = t.keys in
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    let key = keys.(i) in
    if is_live t key then begin
      times.(!n) <- times.(i);
      keys.(!n) <- key;
      incr n
    end
  done;
  for l = 1 to Array.length t.ring_len - 1 do
    let len = t.ring_len.(l) in
    if len > 0 then begin
      let rtimes = t.ring_times.(l) and rkeys = t.ring_keys.(l) in
      let mask = Array.length rkeys - 1 and head = t.ring_head.(l) in
      let first_live = is_live t rkeys.(head) in
      let kept = ref 0 in
      for i = 0 to len - 1 do
        let src = (head + i) land mask in
        let key = rkeys.(src) in
        if is_live t key then begin
          let dst = (head + !kept) land mask in
          rtimes.(dst) <- rtimes.(src);
          rkeys.(dst) <- key;
          incr kept
        end
      done;
      t.ring_len.(l) <- !kept;
      t.firsts.(l) <- (if !kept > 0 then rkeys.(head) else none);
      if (not first_live) && !kept > 0 then begin
        times.(!n) <- rtimes.(head);
        keys.(!n) <- rkeys.(head);
        incr n
      end
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
      if t.size + lane_extra t - t.live > t.live then compact t
    end
  end

let remove_root t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t ~top:0 ~n:last ~src:last

(* The root is lane [l]'s first entry: drop it from the ring, skip the
   dead entries behind it, and put the next live one at the root. *)
let advance t l =
  let rtimes = t.ring_times.(l) and rkeys = t.ring_keys.(l) in
  let mask = Array.length rkeys - 1 in
  let head = ref ((t.ring_head.(l) + 1) land mask) in
  let len = ref (t.ring_len.(l) - 1) in
  while !len > 0 && not (is_live t rkeys.(!head)) do
    head := (!head + 1) land mask;
    decr len
  done;
  t.ring_head.(l) <- !head;
  t.ring_len.(l) <- !len;
  if !len = 0 then begin
    t.firsts.(l) <- none;
    remove_root t
  end
  else begin
    t.firsts.(l) <- rkeys.(!head);
    t.times.(0) <- rtimes.(!head);
    t.keys.(0) <- rkeys.(!head);
    sift_root t
  end

(* Remove the root, whose key is [key]: a lane's first entry gives way
   to the lane's next. *)
let[@inline] remove_first t key =
  let l = lane_first t key in
  if l = 0 then remove_root t else advance t l

(* The one dead-entry drain, shared by every read of the root. *)
let rec drop_dead t =
  if t.size > 0 then begin
    let key = t.keys.(0) in
    if not (is_live t key) then begin
      remove_first t key;
      drop_dead t
    end
  end

(* Pop the (live) root and free its slot. *)
let take_root t =
  let key = t.keys.(0) in
  remove_first t key;
  let slot = key land slot_mask in
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
