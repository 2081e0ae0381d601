type set
type map

(* In a set, the cells hold keys, and [empty] marks an empty cell; the
   key [empty] itself is [has_empty].  In a map, the cells hold numbers,
   and -1 marks an empty cell. *)
let empty = min_int

type 'kind t = {
  mutable cells : int array;
  mutable keys : int array; (* a map's keys by number; [||] in a set *)
  mutable shift : int; (* 63 - log2 (Array.length cells) *)
  mutable size : int; (* distinct keys *)
  mutable has_empty : bool;
}

let create_set () : set t =
  {
    cells = Array.make 16 empty;
    keys = [||];
    shift = 63 - 4;
    size = 0;
    has_empty = false;
  }

let create_map () : map t =
  {
    cells = Array.make 16 (-1);
    keys = Array.make 16 0;
    shift = 63 - 4;
    size = 0;
    has_empty = false;
  }

let length t = t.size

(* Fibonacci hashing: the top bits of [key] times 2^62 / golden ratio. *)
let home t key = (key * 0x278DDE6E5FD29F05) lsr t.shift

(* In a set: the cell holding [key], or the empty cell ending its probe
   run. *)
let rec probe_key cells key i =
  let c = cells.(i) in
  if c = key || c = empty then i
  else probe_key cells key ((i + 1) land (Array.length cells - 1))

(* In a map: the cell holding [key]'s number, or the empty cell ending
   its probe run. *)
let rec probe_number cells keys key i =
  let c = cells.(i) in
  if c < 0 || keys.(c) = key then i
  else probe_number cells keys key ((i + 1) land (Array.length cells - 1))

(* Double the cells, moving each occupied one to its new probe run. *)
let rehash t =
  let old = t.cells in
  let fill = if Array.length t.keys = 0 then empty else -1 in
  t.cells <- Array.make (2 * Array.length old) fill;
  t.shift <- t.shift - 1;
  for i = 0 to Array.length old - 1 do
    let c = old.(i) in
    if c <> fill then
      if Array.length t.keys = 0 then
        t.cells.(probe_key t.cells c (home t c)) <- c
      else begin
        let key = t.keys.(c) in
        t.cells.(probe_number t.cells t.keys key (home t key)) <- c
      end
  done

let full t = 2 * (t.size + 1) > Array.length t.cells

let mem t key =
  if key = empty then t.has_empty
  else t.cells.(probe_key t.cells key (home t key)) = key

let rec add t key =
  if key = empty then begin
    if not t.has_empty then t.size <- t.size + 1;
    t.has_empty <- true
  end
  else begin
    let i = probe_key t.cells key (home t key) in
    if t.cells.(i) <> key then
      if full t then begin
        rehash t;
        add t key
      end
      else begin
        t.cells.(i) <- key;
        t.size <- t.size + 1
      end
  end

let find t key = t.cells.(probe_number t.cells t.keys key (home t key))

let rec number t key =
  let i = probe_number t.cells t.keys key (home t key) in
  let c = t.cells.(i) in
  if c >= 0 then c
  else if full t then begin
    rehash t;
    number t key
  end
  else begin
    let c = t.size in
    if c = Array.length t.keys then begin
      let keys = Array.make (2 * c) 0 in
      Array.blit t.keys 0 keys 0 c;
      t.keys <- keys
    end;
    t.keys.(c) <- key;
    t.cells.(i) <- c;
    t.size <- c + 1;
    c
  end

let key t i =
  if i < 0 || i >= t.size then invalid_arg "Int_table.key: no such number";
  t.keys.(i)
