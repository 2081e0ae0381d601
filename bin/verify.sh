#!/bin/sh
# Tier-1 verify in one command (see ROADMAP.md).
#
#   bin/verify.sh           @lint @check @race @hot (the four rule families
#                           of bin/mmb_analyze.exe over analysis.allow),
#                           build, dune runtest, and the trace smoke (run
#                           --trace-out/--provenance + trace-validate)
#   bin/verify.sh --full    default + randomized-hash runtest, the rule
#                           families' fixture suites (@fixtures), the dyn
#                           suite, the campaign and pdes determinism gates,
#                           a large audited run (n = 4096, k = 64, --check),
#                           and the n = 10^6 partitioned grid run
#                           (EXPERIMENTS.md E18)
#   bin/verify.sh --tsan    multi-domain exec and pdes tests under
#                           ThreadSanitizer (needs an OCaml >= 5.2 tsan opam
#                           switch; set MMB_TSAN_SWITCH to name it
#                           explicitly; SKIPs gracefully when none exists)
#
# Performance is measured by the benchmark BENCHMARK.json declares
# (bench/wallclock, see its README.md), not here; `dune runtest` runs its
# smoke mode.
#
# Every gate runs even after a failure; a one-line-per-gate summary
# table prints at the end and the exit code is 0 only if no gate failed.
cd "$(dirname "$0")/.."

MODE=default
case "${1:-}" in
  "") ;;
  --full)  MODE=full ;;
  --tsan)  MODE=tsan ;;
  *) echo "usage: bin/verify.sh [--full|--tsan]" >&2; exit 2 ;;
esac

SUMMARY=""
FAILED=0

gate() {
  name=$1; shift
  echo "== $name"
  if "$@"; then
    SUMMARY="${SUMMARY}PASS  ${name}
"
  else
    SUMMARY="${SUMMARY}FAIL  ${name}
"
    FAILED=1
  fi
}

skip() {
  echo "== $1 (skipped: $2)"
  SUMMARY="${SUMMARY}SKIP  $1 ($2)
"
}

if [ "$MODE" = tsan ]; then
  # ThreadSanitizer instrumentation is a compiler feature (OCaml >= 5.2
  # built with tsan support); it lives in its own opam switch so the
  # default build stays uninstrumented.  lib/exec (campaign pool) and
  # lib/pdes (horizon-parallel engine) are the two domain-spawning
  # subsystems, so their suites are the ones worth instrumenting.
  SW="${MMB_TSAN_SWITCH:-$(opam switch list -s 2>/dev/null | grep -i tsan | head -1)}"
  if [ -z "$SW" ]; then
    skip "tsan exec tests" "no tsan opam switch found"
    skip "tsan pdes tests" "no tsan opam switch found"
  else
    echo "using tsan switch: $SW"
    gate "tsan build (switch $SW)" \
      opam exec --switch "$SW" -- dune build --build-dir _build_tsan test/test_main.exe
    gate "tsan exec tests" \
      opam exec --switch "$SW" -- dune exec --build-dir _build_tsan \
      test/test_main.exe -- test exec
    gate "tsan pdes tests" \
      opam exec --switch "$SW" -- dune exec --build-dir _build_tsan \
      test/test_main.exe -- test pdes
  fi
else
  gate "dune build @lint @check @race" dune build @lint @check @race
  # Typed-tree hot-path gate.  The alias depends on the library builds,
  # so the .cmt files it reads exist even on a cold tree; a file whose
  # .cmt still cannot be produced is a per-file "SKIP <file>: <reason>"
  # diagnostic on stderr from mmb_analyze hot, never a gate failure.
  gate "dune build @hot" dune build @hot
  gate "dune build" dune build
  gate "dune runtest" dune runtest

  # Trace smoke: tiny BMMB and FMMB runs must produce Perfetto and
  # provenance exports that self-validate (schema + per-event shape).
  # Both engines feed the exports through the same live attach path.
  gate "trace smoke (run --trace-out/--provenance + trace-validate)" \
    sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
      dune exec bin/mmb_sim.exe -- run -t line -n 10 -k 2 --seed 3 \
        --trace-out "$T/trace.json" --provenance "$T/prov.jsonl" >/dev/null &&
      dune exec bin/mmb_sim.exe -- run -p fmmb -n 20 -k 2 --seed 3 \
        --trace-out "$T/fmmb.json" --provenance "$T/fmmb.jsonl" >/dev/null &&
      dune exec bin/mmb_sim.exe -- trace-validate "$T/trace.json" \
        "$T/prov.jsonl" "$T/fmmb.json" "$T/fmmb.jsonl"'

  if [ "$MODE" = full ]; then
    # Randomized hash seeds catch order-dependent Hashtbl traversals
    # that default hashing hides.
    gate "OCAMLRUNPARAM=R dune runtest --force" \
      sh -c 'OCAMLRUNPARAM=R dune runtest --force'
    # The four rule families' fixture suites, straight from the alias the
    # fixtures hang off.
    gate "dune build @fixtures" dune build @fixtures
    # The dynamic-network suite on its own, plus a campaign determinism
    # probe: the churn T-sweep must produce identical reports whether it
    # runs on 1 worker or 4 (lib/dyn derives every epoch's edge set
    # purely from (seed, epoch), so job order cannot matter).
    gate "dyn suite (test dyn)" \
      sh -c 'cd _build/default/test && ./test_main.exe test dyn'
    # Distinct salts give each invocation its own digests, cache, and
    # resume manifest, so both actually execute (nothing is replayed).
    gate "campaign determinism (churn_line --jobs 1 vs 4)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        dune exec bin/mmb_sim.exe -- campaign scenarios/churn_line.json \
          --jobs 1 --cache-dir "$T/c1" --salt v1 > "$T/out1" &&
        dune exec bin/mmb_sim.exe -- campaign scenarios/churn_line.json \
          --jobs 4 --cache-dir "$T/c4" --salt v4 > "$T/out2" &&
        cmp "$T/out1" "$T/out2"'
    # The partitioned engine's core promise: with the partition count P
    # fixed, the worker-domain count must not change a single trace byte.
    # The 4-domain run also gets randomized hash seeds so any
    # order-dependent Hashtbl traversal on the merge path would diverge.
    gate "pdes determinism (--partitions 4: --domains 1 vs 4 trace bytes)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        dune exec bin/mmb_sim.exe -- run -t line -n 200 -k 3 --fack 8 \
          --seed 3 --partitions 4 --domains 1 --trace-out "$T/d1.jsonl" \
          > /dev/null &&
        OCAMLRUNPARAM=R dune exec bin/mmb_sim.exe -- run -t line -n 200 \
          -k 3 --fack 8 --seed 3 --partitions 4 --domains 4 \
          --trace-out "$T/d4.jsonl" > /dev/null &&
        cmp "$T/d1.jsonl" "$T/d4.jsonl"'
    # The axiom checker's cost is linear in run length: a 4096-node,
    # 64-message r-restricted grid (1.8 M events) audits in seconds.
    gate "large checked run (grid -n 4096 -k 64 --check)" \
      sh -c 'out=$(dune exec bin/mmb_sim.exe -- run -t grid -n 4096 \
          -g r-restricted --extra 8192 -k 64 --check) &&
        printf "%s\n" "$out" | tail -1 &&
        printf "%s\n" "$out" | grep -q "^compliance: OK"'
    # EXPERIMENTS.md E18's reproducer: the million-node grid on the
    # partitioned engine's struct-of-arrays path must complete.
    gate "E18 million-node grid (-n 1000000 --partitions 8 --domains 2)" \
      sh -c 'out=$(dune exec bin/mmb_sim.exe -- run -t grid -n 1000000 \
          -k 2 --fack 8 --seed 5 --partitions 8 --domains 2) &&
        printf "%s\n" "$out" && printf "%s\n" "$out" | grep -qx "complete: true"'
  else
    skip "OCAMLRUNPARAM=R dune runtest --force" "run with --full"
    skip "dune build @fixtures" "run with --full"
    skip "dyn suite (test dyn)" "run with --full"
    skip "campaign determinism (churn_line --jobs 1 vs 4)" "run with --full"
    skip "pdes determinism (--partitions 4: --domains 1 vs 4 trace bytes)" "run with --full"
    skip "large checked run (grid -n 4096 -k 64 --check)" "run with --full"
    skip "E18 million-node grid (-n 1000000 --partitions 8 --domains 2)" "run with --full"
  fi
fi

echo
echo "---- verify ($MODE) ----"
printf '%s' "$SUMMARY"
if [ "$FAILED" -eq 0 ]; then
  echo "verify: all green"
else
  echo "verify: FAILED"
  exit 1
fi
