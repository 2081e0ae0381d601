(* The static analyzer, one rule family per subcommand:

     mmb_analyze FAMILY [--allow FILE] [--json] [--rules] [--no-stale]
                 [--inventory] PATH...

   FAMILY is lint, check, race or hot.  Exit code 0 on a clean tree, 1
   on findings, 2 on usage errors, unparseable files, or a PATH with no
   source files.  The root dune file wires each family to its alias
   (dune build @lint, @check, @race, @hot); see Analysis.Cli and
   DESIGN.md "Static analysis". *)

let () =
  Analysis.(Cli.main [ Lint.family; Check.family; Race.family; Hot.family ])
