#!/usr/bin/env bash
# Build GalaTex and the benchmark harness from source, then run one
# measurement:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the last
# line of stdout is the harness's JSON result.
set -u
cd "$(dirname "$0")/.." || exit 2
if ! dune build --root . ./bin/galatex_cli.exe ./perfbench/perfbench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/perfbench.exe \
  --galatex ./_build/default/bin/galatex_cli.exe "$@"
