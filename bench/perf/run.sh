#!/usr/bin/env bash
# Build the benchmark and the dmm daemon from this checkout's sources
# (release profile, in .bench_build/ so it never touches a development
# _build/), then run one workload:
#
#   bash bench/perf/run.sh --workload table1 --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays in the checkout: the dune
# cache is off, build products go to .bench_build/, sockets and traces to
# .bench_run/.
set -euo pipefail
cd "$(dirname "$0")/../.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
build=.bench_build
DUNE_CACHE=disabled dune build --root . --build-dir "$build" --profile release \
  --display quiet ./bench/perf/main.exe ./bin/main.exe >&2
exec "$build/default/bench/perf/main.exe" --dmm "$build/default/bin/main.exe" "$@"
