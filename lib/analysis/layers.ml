(* The project's layer DAG.  References must point strictly downward:

     dsim → graphs → dyn → {amac, pdes} → {mmb, radio} → obs → exec
          → {bench, bin}

   (an arrow means "may be referenced by"; mmb and radio are siblings
   and must not reference each other).  dyn sits between graphs and
   amac: it versions dual graphs by epoch, the MAC consults it at
   delivery-plan time, and everything above may build schedules.  pdes
   is amac's sibling: the horizon-parallel engine fuses protocol and
   MAC semantics over dsim/graphs/dyn, and mmb's runner drives either
   engine.  The
   analyzer library (lib/analysis) sits outside the DAG: it is tooling
   over the sources, not simulation code, and nothing simulation-side
   may import it anyway since it would drag in compiler-libs. *)

type t = { name : string; rank : int }

let dag =
  "dsim -> graphs -> dyn -> {amac, pdes} -> {mmb, radio} -> obs -> exec -> \
   {bench, bin}"

let lib_dirs =
  [
    ("dsim", 0);
    ("graphs", 1);
    ("dyn", 2);
    ("amac", 3);
    ("pdes", 3);
    ("mmb", 4);
    ("radio", 4);
    ("obs", 5);
    ("exec", 6);
  ]

(* Top-level wrapped-library module name -> layer.  bench and bin are
   executables, not libraries, so no module ever resolves to them. *)
let modules =
  [
    ("Dsim", "dsim");
    ("Graphs", "graphs");
    ("Dyn", "dyn");
    ("Amac", "amac");
    ("Pdes", "pdes");
    ("Mmb", "mmb");
    ("Radio", "radio");
    ("Obs", "obs");
    ("Exec", "exec");
  ]

let of_dir d =
  Option.map (fun rank -> { name = d; rank }) (List.assoc_opt d lib_dirs)

(* Layer of a source path: the component after a "lib" component, or the
   pseudo-layers bench/bin at the top of the DAG. *)
let of_path file =
  let comps = String.split_on_char '/' file in
  let rec after_lib = function
    | "lib" :: d :: _ -> of_dir d
    | _ :: rest -> after_lib rest
    | [] -> None
  in
  match after_lib comps with
  | Some l -> Some l
  | None ->
      if List.exists (fun c -> c = "bench") comps then
        Some { name = "bench"; rank = 7 }
      else if List.exists (fun c -> c = "bin") comps then
        Some { name = "bin"; rank = 7 }
      else None

let of_module m =
  match List.assoc_opt m modules with None -> None | Some d -> of_dir d
