(* Bit [i land 7] of byte [i lsr 3] holds id [i].  For a negative id,
   [i lsr 3] is past any byte string's end, so the read paths treat it
   as absent with the same bounds test they make for a large one. *)
type t = { mutable bits : Bytes.t }

let create ~width =
  if width < 0 then invalid_arg "Bitset.create: need width >= 0";
  { bits = Bytes.make ((width + 7) lsr 3) '\000' }

let mem s i =
  let b = i lsr 3 in
  b < Bytes.length s.bits
  && Bytes.get_uint8 s.bits b land (1 lsl (i land 7)) <> 0

(* Room for byte [b]: at least double the width, so n adds grow it
   O(log n) times. *)
let grow s b =
  let len = Bytes.length s.bits in
  let bits = Bytes.make (max (b + 1) (2 * len)) '\000' in
  Bytes.blit s.bits 0 bits 0 len;
  s.bits <- bits

(* Sets the bit of [i >= 0] and says whether it was set. *)
let set s i =
  let b = i lsr 3 in
  if b >= Bytes.length s.bits then grow s b;
  let byte = Bytes.get_uint8 s.bits b and bit = 1 lsl (i land 7) in
  Bytes.set_uint8 s.bits b (byte lor bit);
  byte land bit <> 0

let test_and_add s i =
  if i < 0 then invalid_arg "Bitset.test_and_add: ids must be >= 0";
  set s i

let add s i =
  if i < 0 then invalid_arg "Bitset.add: ids must be >= 0";
  ignore (set s i)

let remove s i =
  let b = i lsr 3 in
  if b < Bytes.length s.bits then
    Bytes.set_uint8 s.bits b
      (Bytes.get_uint8 s.bits b land lnot (1 lsl (i land 7)))

let cardinal s =
  let count = ref 0 in
  for b = 0 to Bytes.length s.bits - 1 do
    let x = ref (Bytes.get_uint8 s.bits b) in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr count
    done
  done;
  !count

(* The index of the lowest set bit of a nonzero byte. *)
let lowest x =
  let j = ref 0 in
  while x land (1 lsl !j) = 0 do
    incr j
  done;
  !j

(* The lowest bit set in [a] and clear in [b], from byte [i] on, or -1.
   [b]'s bytes past its end read as 0. *)
let rec first_diff a b i =
  if i >= Bytes.length a then -1
  else
    let x =
      if i < Bytes.length b then
        Bytes.get_uint8 a i land lnot (Bytes.get_uint8 b i)
      else Bytes.get_uint8 a i
    in
    if x = 0 then first_diff a b (i + 1) else (i lsl 3) + lowest x

let min_diff a b =
  match first_diff a.bits b.bits 0 with -1 -> None | i -> Some i

let min_elt s =
  match first_diff s.bits Bytes.empty 0 with -1 -> None | i -> Some i

(* Bytes [i ..] of [a] and [b] agree, reading bytes past either's end
   as 0. *)
let rec agree a b i =
  let la = Bytes.length a and lb = Bytes.length b in
  if i >= la && i >= lb then true
  else
    let x = if i < la then Bytes.get_uint8 a i else 0
    and y = if i < lb then Bytes.get_uint8 b i else 0 in
    x = y && agree a b (i + 1)

let equal a b = agree a.bits b.bits 0

let iter f s =
  let bits = s.bits in
  for b = 0 to Bytes.length bits - 1 do
    let x = Bytes.get_uint8 bits b in
    if x <> 0 then
      for j = 0 to 7 do
        if x land (1 lsl j) <> 0 then f ((b lsl 3) + j)
      done
  done
