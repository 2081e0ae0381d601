let thm_3_1 ~d ~k ~fack = float_of_int (d + k) *. fack

let thm_3_16 ~d ~k ~r ~fack ~fprog =
  let dterm = float_of_int (d + ((r + 1) * k) - 2) *. fprog in
  let kterm = float_of_int (r * (k - 1)) *. fack in
  Float.max 0. (dterm +. kterm)

let fmmb_shape ~n ~d ~k =
  let logn = log (float_of_int (max 2 n)) in
  (float_of_int d *. logn) +. (float_of_int k *. logn) +. (logn ** 3.)

(* One BFS per distinct origin: [all_at] puts all k messages on one node. *)
let max_origin_eccentricity ~dual ~assignment =
  let g = Graphs.Dual.reliable dual in
  List.fold_left
    (fun acc node -> max acc (Graphs.Bfs.eccentricity g node))
    0
    (List.sort_uniq Int.compare (List.map fst assignment))

let bmmb_upper ~dual ~assignment ~fack ~fprog =
  let d = max_origin_eccentricity ~dual ~assignment in
  let k = List.length assignment in
  let arbitrary = thm_3_1 ~d ~k ~fack in
  let r = Graphs.Dual.restriction_radius dual in
  if r = max_int then arbitrary
  else Float.min arbitrary (thm_3_16 ~d ~k ~r ~fack ~fprog)

let lower_two_line ~d ~fack = float_of_int (d - 1) *. fack

let lower_choke ~k ~fack = float_of_int (k - 1) *. fack
