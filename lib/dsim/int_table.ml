(* The cells hold numbers, and -1 marks an empty cell. *)
type t = {
  mutable cells : int array;
  mutable keys : int array; (* keys by number *)
  mutable shift : int; (* 63 - log2 (Array.length cells) *)
  mutable size : int; (* distinct keys *)
}

let create () =
  { cells = Array.make 16 (-1); keys = Array.make 16 0; shift = 59; size = 0 }

let length t = t.size

(* Fibonacci hashing: the top bits of [key] times 2^62 / golden ratio. *)
let home t key = (key * 0x278DDE6E5FD29F05) lsr t.shift

(* The cell holding [key]'s number, or the empty cell ending its probe
   run. *)
let rec probe cells keys key i =
  let c = cells.(i) in
  if c < 0 || keys.(c) = key then i
  else probe cells keys key ((i + 1) land (Array.length cells - 1))

(* Double the cells, moving each occupied one to its new probe run. *)
let rehash t =
  let old = t.cells in
  t.cells <- Array.make (2 * Array.length old) (-1);
  t.shift <- t.shift - 1;
  for i = 0 to Array.length old - 1 do
    let c = old.(i) in
    if c >= 0 then begin
      let key = t.keys.(c) in
      t.cells.(probe t.cells t.keys key (home t key)) <- c
    end
  done

let find t key = t.cells.(probe t.cells t.keys key (home t key))

let rec number t key =
  let i = probe t.cells t.keys key (home t key) in
  let c = t.cells.(i) in
  if c >= 0 then c
  else if 2 * (t.size + 1) > Array.length t.cells then begin
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
