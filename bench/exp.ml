(* The experiment abstraction the campaign runner consumes.

   Each experiment group (e1..e16) is a list of Exec.Job cells plus a
   render step.  Cells are pure: they compute a row / trial / sub-report
   from their spec alone and never print (fine-grained cells return data;
   coarse "inline" cells emit their whole report through Exec.Sink, which
   the campaign captures).  [render] runs on the main domain after all of
   the group's results are collected, in cell order, and prints the
   tables — so the harness produces byte-identical reports whether the
   cells ran on one domain, on N, or straight from the cache. *)

type t = {
  id : string;
  cells : Exec.Job.t list;
  render : Dsim.Json.t list -> unit;
}

let make ~id ~cells ~render = { id; cells; render }

let spec ~id fields =
  Dsim.Json.Obj (("exp", Dsim.Json.String id) :: fields)

(* Wrap a coarse inline experiment (prints its own report through
   Report/Sink) as a single-cell job list.  The captured text is the
   result, so even these coarse cells cache and replay byte-identically;
   the binary-digest salt invalidates them on any rebuild. *)
let inline ~id f =
  {
    id;
    cells =
      [
        Exec.Job.make
          ~spec:(spec ~id [ ("kind", Dsim.Json.String "inline") ])
          (fun () ->
            f ();
            Dsim.Json.Null);
      ];
    render = (fun _ -> ());
  }

(* --- Row encoding for fine-grained cells -------------------------------- *)

let row_json cells = Dsim.Json.List (List.map (fun s -> Dsim.Json.String s) cells)

let row_of_json = function
  | Dsim.Json.List items ->
      List.map
        (function Dsim.Json.String s -> s | other -> Dsim.Json.to_string other)
        items
  | other -> [ Dsim.Json.to_string other ]

let num x = Dsim.Json.Number x

let num_of_json ~field json =
  match Dsim.Json.member_opt json field with
  | Some (Dsim.Json.Number x) -> x
  | _ -> Float.nan

let bool_of_json ~field json =
  match Dsim.Json.member_opt json field with
  | Some (Dsim.Json.Bool b) -> b
  | _ -> false
