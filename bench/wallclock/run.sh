#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it; every argument
# goes to bench/wallclock/main.exe (see README.md).  Run it from the root
# of a checkout.  Build output goes to stderr, so the last line on stdout
# is the benchmark's own result line.  The shared dune cache is off, so
# the build writes nothing outside the checkout's _build.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

dune build --root . --cache=disabled --display quiet ./bench/wallclock/main.exe 1>&2
exec ./_build/default/bench/wallclock/main.exe "$@"
