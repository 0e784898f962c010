#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr, so the last
# stdout line is the benchmark's JSON result.
set -euo pipefail
# Build inside the checkout only: no shared dune cache.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
