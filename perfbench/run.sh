#!/usr/bin/env bash
# Build the benchmark and vstatd from source, then run one pass:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a vstat source tree.  Build output goes to stderr;
# the last line of stdout is the JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not at the root of a vstat source tree" >&2
  exit 2
fi
# The shared dune cache lives outside the tree; build inside it only.
DUNE_CACHE=disabled dune build --root . perfbench/perfbench.exe bin/vstatd.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
