#!/usr/bin/env bash
# Build the benchmark and the hoiho executable from this checkout, then
# run the benchmark with the given arguments. Run from the repository
# root:
#   bash bench/perf/run.sh --workload serve-zipf --seed 7 --seconds 10 --trace 0
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
dune build --root . ./bench/perf/perf.exe ./bin/hoiho_cli.exe 1>&2
exec ./_build/default/bench/perf/perf.exe --cli ./_build/default/bin/hoiho_cli.exe "$@"
