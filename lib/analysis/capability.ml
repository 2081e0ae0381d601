(* Named capability lists: the sanctioned cross-layer surfaces the
   architecture rules enforce by default-deny.

   The MAC abstraction of the paper hides the graph from the algorithms
   above it: BMMB/FMMB are link-oblivious and learn topology only
   through message behaviour (Section 2).  The protocol layer may still
   hold a [Graphs.Dual.t] — it sets scenarios up, sizes parameters from
   global quantities, and validates results — so rather than banning the
   module, A2 pins lib/mmb to this exact surface.  Everything here is
   setup or measurement: generators, global scalars (n, max degree,
   diameter), and whole-structure validity oracles.  What is absent is
   the point: no edge membership, no neighbourhoods, no per-vertex
   adjacency — a protocol needing those is reading the topology the
   paper says it cannot see. *)

let mmb_graphs : (string * string list) list =
  [
    ( "Dual",
      [
        "t";
        "n";
        "reliable";
        "unreliable";
        "of_equal";
        "two_line";
        "two_line_a";
        "two_line_b";
        "choke";
        "r_restricted_random";
        "arbitrary_random";
        "grey_zone_connected";
        "restriction_radius";
      ] );
    ("Graph", [ "t"; "n"; "max_degree" ]);
    ("Bfs", [ "components"; "diameter"; "eccentricity" ]);
    ("Gen", [ "line"; "ring"; "star"; "grid"; "random_connected_geometric" ]);
    ("Mis", [ "is_maximal_independent"; "is_connected_dominating" ]);
  ]

(* Is this Graphs reference within lib/mmb's sanctioned surface?
   Paths that do not start with Graphs are not Graphs references at all
   and trivially pass.  A bare [Graphs] module reference (an [open] or a
   module alias) is denied: it would make the whole surface ambient and
   unauditable. *)
let mmb_sanctioned path =
  match path with
  | "Graphs" :: rest -> (
      match rest with
      | [] -> false
      | [ sub ] -> List.mem_assoc sub mmb_graphs
      | sub :: member :: _ -> (
          match List.assoc_opt sub mmb_graphs with
          | None -> false
          | Some members -> List.mem member members))
  | _ -> true

let mmb_surface_doc =
  String.concat "; "
    (List.map
       (fun (sub, members) -> sub ^ ".{" ^ String.concat "," members ^ "}")
       mmb_graphs)

(* A6: the epoch-mutating surface of lib/dyn.  Time-varying dual graphs
   advance in exactly two places — lib/dyn itself (schedules stepping
   their own state) and lib/amac (the MAC consulting the epoch-current
   adjacency at delivery-plan time and feeding the delivered-set
   oracle).  Everything above stays epoch-oblivious: protocols may
   *build* schedules and wrappers (construction is setup, like A2's
   generator surface) and may read counters post-run, but a protocol
   advancing epochs or injecting oracle probes would couple its
   behaviour to link dynamics the paper says it cannot see. *)
let dyn_mutators : (string * string list) list =
  [
    ("Schedule", [ "extras_at" ]);
    ("Dual", [ "view"; "advance_to"; "note_bcast"; "note_delivery" ]);
    ("Oracle", [ "note" ]);
  ]

(* Is this Dyn reference free of epoch mutation?  Paths not rooted at
   Dyn trivially pass.  A bare [Dyn] reference (an [open] or module
   alias) is denied: it would make the mutator surface ambient. *)
let dyn_epoch_oblivious path =
  match path with
  | "Dyn" :: rest -> (
      match rest with
      | [] -> false
      | [ _sub ] -> true
      | sub :: member :: _ -> (
          match List.assoc_opt sub dyn_mutators with
          | None -> true
          | Some members -> not (List.mem member members)))
  | _ -> true

let dyn_mutator_doc =
  String.concat "; "
    (List.map
       (fun (sub, members) -> sub ^ ".{" ^ String.concat "," members ^ "}")
       dyn_mutators)
