type t = Random.State.t

(* Seeds are stretched through splitmix64-style mixing so that nearby integer
   seeds (0, 1, 2, ...) yield uncorrelated streams. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  let z0 = mix64 (Int64.of_int seed) in
  let z1 = mix64 (Int64.add z0 0x9e3779b97f4a7c15L) in
  Random.State.make
    [| Int64.to_int z0; Int64.to_int z1; Int64.to_int (mix64 z1) |]

let split t = create ~seed:(Random.State.bits t lxor (Random.State.bits t lsl 30))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  Random.State.int t bound

(* The top 53 bits of a 64-bit draw, redrawn while they are all zero:
   the integer [Random.State.float] scales by 2^-53, drawn as an
   immediate int.  [Random.State.float]'s own recursive draw returns a
   boxed float and so allocates on every call. *)
let rec bits53 t =
  let n = Int64.to_int (Int64.shift_right_logical (Random.State.bits64 t) 11) in
  if n <> 0 then n else bits53 t

(* Bit for bit [Random.State.float t bound]: the same draw, and the same
   two roundings in the same order. *)
let float t bound = Float.of_int (bits53 t) *. 0x1.p-53 *. bound

let float_cell t a i = a.(i) <- Float.of_int (bits53 t) *. 0x1.p-53 *. a.(i)

let bool t = Random.State.bool t

(* [Random.State.float t 1. < p]: scaling by 1 is exact, so it is
   left out. *)
let bernoulli t ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else Float.of_int (bits53 t) *. 0x1.p-53 < p

let bits t ~n = Array.init n (fun _ -> Random.State.bool t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(Random.State.int t (Array.length a))
