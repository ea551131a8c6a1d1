#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run one
# workload; see perfbench/README.md.
#
#   bash perfbench/run.sh --workload tf-flat --seed 1 --seconds 15 --trace 0
#
# The last line of standard output is the result as one JSON object.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# no shared build cache: everything the build writes stays in _build
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
