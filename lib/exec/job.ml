(* A campaign job: one pure, deterministic unit of work.

   The [spec] is the job's complete identity — every input that can change
   the result must appear in it (scenario fields, seed, protocol, ...).
   [digest] hashes the canonical form of the spec together with a
   code-version salt; the digest keys the result cache, so two jobs with
   the same digest are interchangeable. *)

type t = { spec : Dsim.Json.t; run : unit -> Dsim.Json.t }

let make ~spec run = { spec; run }

(* Canonical form: object keys sorted recursively, compact printing.
   [Dsim.Json.to_string] is itself deterministic, so sorting keys is the
   only normalization needed for content addressing. *)
let rec normalize = function
  | Dsim.Json.Obj members ->
      Dsim.Json.Obj
        (List.map (fun (k, v) -> (k, normalize v)) members
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  | Dsim.Json.List items -> Dsim.Json.List (List.map normalize items)
  | other -> other

let canonical json = Dsim.Json.to_string (normalize json)

let digest ~salt t =
  Digest.to_hex (Digest.string (canonical t.spec ^ "\x00" ^ salt))
