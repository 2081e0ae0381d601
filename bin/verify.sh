#!/bin/sh
# Tier-1 verify in one command (see ROADMAP.md).
#
#   bin/verify.sh           @lint @check @race @hot (the four rule families
#                           of bin/mmb_analyze.exe over analysis.allow),
#                           build, dune runtest, and the trace smoke (run
#                           --trace-out/--provenance + trace-validate, and
#                           estimate on an intact and a torn JSONL trace)
#   bin/verify.sh --full    default + randomized-hash runtest, the rule
#                           families' fixture suites (@fixtures), the dyn
#                           suite, the campaign and pdes determinism gates,
#                           a large audited run (n = 4096, k = 64, --check,
#                           under ulimit -v 600000),
#                           a partitioned checked run (n = 10^4, P = 8,
#                           N = 2, --check, pinned output),
#                           a large adversarial checked run (n = 4096,
#                           k = 16, pinned output), a large eager
#                           checked run (same grid, pinned output), the
#                           adversarial run on a churned dual (pinned
#                           output and metrics-file MD5), a large FMMB run
#                           (n = 640 grey-zone, pinned output and MD5),
#                           a large serial run
#                           (n = 250000, pinned output), a serial run's
#                           memory (n = 16384, k = 32, pinned output and
#                           top-heap and minor-words ceilings),
#                           the n = 10^6 partitioned grid run
#                           (EXPERIMENTS.md E18) and an n = 10^5
#                           partitioned line, both with pinned output
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

  # Trace smoke: tiny BMMB (serial and partitioned, P = 4 on 2 domains)
  # and FMMB runs must produce Perfetto and provenance exports that
  # self-validate (schema + per-event shape).  Every engine feeds the
  # exports through the same live attach path.  A serial run's JSONL
  # trace must read back through estimate (Fprog = 1 recovered), and
  # the same file cut 3 bytes short, inside its last number, must be
  # refused rather than read as a smaller instance id.  FMMB's JSONL
  # trace is its one stream, MAC entries included: estimate reads its
  # receptions and, every round instance aborting one round after its
  # bcast, Fprog = 1, printed as 1.001 because the search stops within
  # 1e-6 of the trace's 1523 rounds.
  gate "trace smoke (run --trace-out/--provenance + trace-validate + estimate, torn trace refused)" \
    sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
      dune exec bin/mmb_sim.exe -- run -t line -n 10 -k 2 --seed 3 \
        --trace-out "$T/trace.json" --provenance "$T/prov.jsonl" >/dev/null &&
      dune exec bin/mmb_sim.exe -- run -t line -n 40 -k 3 --seed 3 \
        --partitions 4 --domains 2 --trace-out "$T/pdes.json" \
        --provenance "$T/pdes.jsonl" >/dev/null &&
      dune exec bin/mmb_sim.exe -- run -p fmmb -n 20 -k 2 --seed 3 \
        --trace-out "$T/fmmb.json" --provenance "$T/fmmb.jsonl" >/dev/null &&
      dune exec bin/mmb_sim.exe -- trace-validate "$T/trace.json" \
        "$T/prov.jsonl" "$T/pdes.json" "$T/pdes.jsonl" "$T/fmmb.json" \
        "$T/fmmb.jsonl" &&
      dune exec bin/mmb_sim.exe -- run -t line -n 20 -k 2 --seed 3 \
        --trace-out "$T/t.jsonl" >/dev/null &&
      dune exec bin/mmb_sim.exe -- estimate "$T/t.jsonl" -t line -n 20 \
        --seed 3 | grep -q "Fprog>=1[.]000" &&
      head -c $(($(wc -c < "$T/t.jsonl") - 3)) "$T/t.jsonl" > "$T/torn.jsonl" &&
      ! dune exec bin/mmb_sim.exe -- estimate "$T/torn.jsonl" -t line -n 20 \
        --seed 3 >/dev/null 2>&1 &&
      dune exec bin/mmb_sim.exe -- run -p fmmb -n 20 -k 2 --seed 3 \
        --trace-out "$T/f.jsonl" >/dev/null &&
      dune exec bin/mmb_sim.exe -- estimate "$T/f.jsonl" -t line -n 20 \
        --seed 3 | grep -q "Fprog>=1[.]001 (from 0 acks, [1-9][0-9]* rcvs)"'

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
    # Distinct cache directories give each invocation an empty cache, so
    # both actually execute (nothing is replayed).
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
    # The line has only 1-2 due partitions per window, so the grid run
    # (about 1,500 events per window over all 8 partitions) is the one
    # where both domains run partitions at the same time over the
    # node-indexed arrays the partitions share.
    gate "pdes determinism (line P=4: N=1 vs 4; grid P=8: N=1 vs 2; trace bytes)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        dune exec bin/mmb_sim.exe -- run -t line -n 200 -k 3 --fack 8 \
          --seed 3 --partitions 4 --domains 1 --trace-out "$T/d1.jsonl" \
          > /dev/null &&
        OCAMLRUNPARAM=R dune exec bin/mmb_sim.exe -- run -t line -n 200 \
          -k 3 --fack 8 --seed 3 --partitions 4 --domains 4 \
          --trace-out "$T/d4.jsonl" > /dev/null &&
        cmp "$T/d1.jsonl" "$T/d4.jsonl" &&
        dune exec bin/mmb_sim.exe -- run -t grid -n 10000 -k 4 --fack 8 \
          --seed 3 --partitions 8 --domains 1 --trace-out "$T/g1.jsonl" \
          > /dev/null &&
        dune exec bin/mmb_sim.exe -- run -t grid -n 10000 -k 4 --fack 8 \
          --seed 3 --partitions 8 --domains 2 --trace-out "$T/g2.jsonl" \
          > /dev/null &&
        cmp "$T/g1.jsonl" "$T/g2.jsonl"'
    # The axiom checker streams, in time and memory: a 4096-node,
    # 64-message r-restricted grid (1.8 M events) is checked in seconds
    # with the simulator under a 600,000 KiB address-space ceiling
    # (ulimit -v, on the simulator only; OCaml 5 reserves about 250 MB
    # of it for minor heaps).  A run that kept its trace to audit it
    # afterwards would need 568 MB resident and die there.
    gate "large checked run (grid -n 4096 -k 64 --check)" \
      sh -c 'dune build bin/mmb_sim.exe &&
        out=$(ulimit -v 600000 && _build/default/bin/mmb_sim.exe run \
          -t grid -n 4096 -g r-restricted --extra 8192 -k 64 --check) &&
        printf "%s\n" "$out" | tail -1 &&
        printf "%s\n" "$out" | grep -q "^compliance: OK"'
    # The partitioned engine's merged trace under the same audit: an
    # r-restricted 10^4-node grid on 8 partitions and 2 domains must
    # reproduce the unchecked run's time, events and windows and pass
    # the five axioms.
    gate "partitioned checked run (grid -n 10000 -g r-restricted --partitions 8 --domains 2 --check)" \
      sh -c 'out=$(dune exec bin/mmb_sim.exe -- run -t grid -n 10000 \
          -g r-restricted --extra 20000 -k 4 --fack 8 --seed 3 \
          --partitions 8 --domains 2 --check) &&
        printf "%s\n" "$out" | grep -x -e "time: .*" -e "engine: .*" -e "compliance: .*" &&
        printf "%s\n" "$out" | grep -qx "time: 27.9815" &&
        printf "%s\n" "$out" | grep -qx "engine: 100492 events executed, 29 barrier windows, heap high water 1290" &&
        printf "%s\n" "$out" | grep -qx "compliance: OK (all five axioms hold)"'
    # The adversary at scale: about 103,000 forced choices, each asking
    # fc_has_received which candidates the receiver already has, must
    # reproduce the run's time and counts exactly and pass the audit.
    gate "large adversarial checked run (grid -n 4096 -k 16 --scheduler adversarial --check)" \
      sh -c 'out=$(dune exec bin/mmb_sim.exe -- run -t grid -n 4096 \
          -g r-restricted --extra 8192 -k 16 --scheduler adversarial \
          --check --seed 7) &&
        printf "%s\n" "$out" | grep -x -e "time: .*" -e "bcasts: .*" -e "engine: .*" -e "compliance: .*" &&
        printf "%s\n" "$out" | grep -qx "time: 501" &&
        printf "%s\n" "$out" | grep -qx "bcasts: 65536, rcvs: 328132, forced progress deliveries: 103053" &&
        printf "%s\n" "$out" | grep -qx "engine: 393684 events executed" &&
        printf "%s\n" "$out" | grep -q "^compliance: OK"'
    # The eager scheduler at scale: every delivery of every bcast lands
    # 0.1 Fprog after it, so about 520,000 deliveries share one delay and
    # queue in one of the event queue's lanes, with equal-time ties that
    # must pop in posting order.  The run must reproduce its time and
    # counts exactly and pass the audit.
    gate "large eager checked run (grid -n 4096 -k 16 --scheduler eager --check)" \
      sh -c 'out=$(dune exec bin/mmb_sim.exe -- run -t grid -n 4096 \
          -g r-restricted --extra 8192 -k 16 --scheduler eager \
          --check --seed 7) &&
        printf "%s\n" "$out" | grep -x -e "time: .*" -e "bcasts: .*" -e "engine: .*" -e "compliance: .*" &&
        printf "%s\n" "$out" | grep -qx "time: 6" &&
        printf "%s\n" "$out" | grep -qx "bcasts: 65536, rcvs: 520192, forced progress deliveries: 0" &&
        printf "%s\n" "$out" | grep -qx "engine: 585744 events executed" &&
        printf "%s\n" "$out" | grep -qx "compliance: OK (all five axioms hold)"'
    # The same adversary under churn: a sender's pinned G'-row can hold
    # a receiver whose current epoch has dropped the link, so a watchdog
    # must look for its candidates over the union G'.  Looking over the
    # current epoch's G' instead changes the time and the forced count.
    # Its metrics file (spans, histograms, the streaming checker's
    # verdict) is pinned byte for byte.
    gate "large churned adversarial checked run (grid -n 4096 -k 16 --scheduler adversarial --dynamic churn --check)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        out=$(dune exec bin/mmb_sim.exe -- run -t grid -n 4096 \
          -g r-restricted --extra 8192 -k 16 --scheduler adversarial \
          --dynamic churn --churn-rate 0.4 --epoch 8 --check --seed 7 \
          --metrics "$T/adv.jsonl") &&
        printf "%s\n" "$out" | grep -x -e "time: .*" -e "bcasts: .*" -e "engine: .*" -e "compliance: .*" &&
        printf "%s\n" "$out" | grep -qx "time: 486" &&
        printf "%s\n" "$out" | grep -qx "bcasts: 65536, rcvs: 312656, forced progress deliveries: 102695" &&
        printf "%s\n" "$out" | grep -qx "engine: 378208 events executed" &&
        printf "%s\n" "$out" | grep -q "^compliance: OK" &&
        md5sum "$T/adv.jsonl" | grep -q "^a8d4ecc39e34e3185b58cb671fcb0e32 "'
    # FMMB at scale: a 640-node grey-zone network runs 6,491 rounds of
    # MIS, gather and spread, so every payload pick of gather and spread
    # (a node's smallest pending or unsent payload) is exercised.  Its
    # rounds, MIS and whole stdout must be reproduced exactly, also
    # under randomized hashing.
    gate "large FMMB run (geometric greyzone -n 640 -k 8, pinned rounds and MIS)" \
      sh -c 'dune build bin/mmb_sim.exe &&
        fmmb() { _build/default/bin/mmb_sim.exe run -p fmmb -t geometric \
          -g greyzone -n 640 -k 8 --seed 3; } &&
        out=$(fmmb) &&
        printf "%s\n" "$out" | grep -x -e "complete: .*" -e "rounds: .*" -e "MIS: .*" &&
        printf "%s\n" "$out" | grep -qx "complete: true" &&
        printf "%s\n" "$out" | grep -qx "rounds: 6491 (mis 703 + gather 18 + spread 5770)" &&
        printf "%s\n" "$out" | grep -qx "MIS: size 114, valid true" &&
        printf "%s\n" "$out" | md5sum | grep -q "^b55eb9991c523e5bde7208478baaf7cc " &&
        OCAMLRUNPARAM=R fmmb | md5sum | grep -q "^b55eb9991c523e5bde7208478baaf7cc "'
    # The serial engine (Dsim.Heap, Standard_mac, Bmmb) at scale: a
    # 250k-node grid, 2.5 M events, must reproduce its completion time
    # and event count exactly.
    gate "large serial run (grid -n 250000 -k 2, pinned time and events)" \
      sh -c 'out=$(dune exec bin/mmb_sim.exe -- run -t grid -n 250000 \
          -k 2 --fack 8 --seed 5) &&
        printf "%s\n" "$out" | grep -x -e "time: .*" -e "engine: .*" &&
        printf "%s\n" "$out" | grep -qx "time: 489.484" &&
        printf "%s\n" "$out" | grep -qx "engine: 2496002 events executed"'
    # A serial run's memory.  Who has which message is one bit per
    # (message, node) in the delivery ledger, and the MAC reuses its
    # contexts, plan and instance records, so a 16,384-node grid with 32
    # messages peaks near 2.2 M major-heap words and allocates about
    # 19 M minor words over its 2.6 M events.  Per-message bool arrays
    # took the peak to 7.4 M; a fresh context, instance and boxed delays
    # per bcast took it to 4.9 M and the minor words to 58.8 M.  The
    # simulator runs from the build directory, so OCAMLRUNPARAM's exit
    # report (v=0x400) is the simulator's alone.
    gate "serial run memory (grid -n 16384 -k 32, top heap <= 3000000 words, minor <= 25000000 words)" \
      sh -c 'dune build bin/mmb_sim.exe &&
        out=$(OCAMLRUNPARAM=v=0x400 _build/default/bin/mmb_sim.exe run \
          -t grid -n 16384 -k 32 --fack 8 --seed 5 2>&1) &&
        printf "%s\n" "$out" | grep -x -e "time: .*" -e "engine: .*" -e "top_heap_words: .*" -e "minor_words: .*" &&
        printf "%s\n" "$out" | grep -qx "time: 326.152" &&
        printf "%s\n" "$out" | grep -qx "engine: 2605088 events executed" &&
        words=$(printf "%s\n" "$out" | sed -n "s/^top_heap_words: //p") &&
        [ "$words" -le 3000000 ] &&
        minor=$(printf "%s\n" "$out" | sed -n "s/^minor_words: //p") &&
        [ "$minor" -le 25000000 ]'
    # EXPERIMENTS.md E18's reproducer: the million-node grid on the
    # partitioned engine's struct-of-arrays path must complete and
    # reproduce its completion time, events and windows exactly.
    gate "E18 million-node grid (-n 1000000 --partitions 8 --domains 2)" \
      sh -c 'out=$(dune exec bin/mmb_sim.exe -- run -t grid -n 1000000 \
          -k 2 --fack 8 --seed 5 --partitions 8 --domains 2) &&
        printf "%s\n" "$out" && printf "%s\n" "$out" | grep -qx "complete: true" &&
        printf "%s\n" "$out" | grep -qx "time: 373.972" &&
        printf "%s\n" "$out" | grep -qx "engine: 4041138 events executed, 375 barrier windows, heap high water 4145"'
    # The partitioned engine's window loop at scale: a 10^5-node line
    # runs 42002 barrier windows with most partitions idle in each, so
    # skipping idle partitions must not change the execution.
    gate "large partitioned line (line -n 100000 --partitions 8, pinned time, events and windows)" \
      sh -c 'out=$(dune exec bin/mmb_sim.exe -- run -t line -n 100000 \
          -k 2 --fack 8 --seed 5 --partitions 8) &&
        printf "%s\n" "$out" | grep -x -e "time: .*" -e "engine: .*" &&
        printf "%s\n" "$out" | grep -qx "time: 48178.9" &&
        printf "%s\n" "$out" | grep -qx "engine: 400030 events executed, 42002 barrier windows, heap high water 14"'
  else
    skip "OCAMLRUNPARAM=R dune runtest --force" "run with --full"
    skip "dune build @fixtures" "run with --full"
    skip "dyn suite (test dyn)" "run with --full"
    skip "campaign determinism (churn_line --jobs 1 vs 4)" "run with --full"
    skip "pdes determinism (line P=4: N=1 vs 4; grid P=8: N=1 vs 2; trace bytes)" "run with --full"
    skip "large checked run (grid -n 4096 -k 64 --check)" "run with --full"
    skip "partitioned checked run (grid -n 10000 -g r-restricted --partitions 8 --domains 2 --check)" "run with --full"
    skip "large adversarial checked run (grid -n 4096 -k 16 --scheduler adversarial --check)" "run with --full"
    skip "large eager checked run (grid -n 4096 -k 16 --scheduler eager --check)" "run with --full"
    skip "large churned adversarial checked run (grid -n 4096 -k 16 --scheduler adversarial --dynamic churn --check)" "run with --full"
    skip "large FMMB run (geometric greyzone -n 640 -k 8, pinned rounds and MIS)" "run with --full"
    skip "large serial run (grid -n 250000 -k 2, pinned time and events)" "run with --full"
    skip "serial run memory (grid -n 16384 -k 32, top heap <= 3000000 words, minor <= 25000000 words)" "run with --full"
    skip "E18 million-node grid (-n 1000000 --partitions 8 --domains 2)" "run with --full"
    skip "large partitioned line (line -n 100000 --partitions 8, pinned time, events and windows)" "run with --full"
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
