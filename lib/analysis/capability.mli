(** Named capability lists — the sanctioned cross-layer surfaces the
    architecture rules enforce by default-deny. *)

val mmb_graphs : (string * string list) list
(** The Graphs surface lib/mmb may touch (check A2): per submodule, the
    sanctioned members.  All of it is setup or measurement — generators,
    global scalars, whole-structure validity oracles.  Edge membership
    and adjacency queries are deliberately absent: the paper's protocols
    are link-oblivious. *)

val mmb_sanctioned : string list -> bool
(** Is this qualified path within the sanctioned surface?  Paths not
    rooted at [Graphs] trivially pass; a bare [Graphs] reference (an
    [open] or module alias) is denied. *)

val mmb_surface_doc : string
(** The surface rendered for finding messages. *)

val dyn_mutators : (string * string list) list
(** The epoch-mutating surface of lib/dyn (check A6): per submodule, the
    members that advance epochs or feed the delivered-set oracle.  Only
    lib/dyn itself and lib/amac (the consult seam) may call them. *)

val dyn_epoch_oblivious : string list -> bool
(** Is this qualified path free of epoch mutation?  Paths not rooted at
    [Dyn] trivially pass; a bare [Dyn] reference (an [open] or module
    alias) is denied. *)

val dyn_mutator_doc : string
(** The mutator surface rendered for finding messages. *)
