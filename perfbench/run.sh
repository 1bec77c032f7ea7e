#!/usr/bin/env bash
# Builds triserve and the benchmark harness from the source tree, then runs
# the harness with the arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, fixtures and trace files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the tree.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/triserve || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (go.mod, cmd/triserve and perfbench/go.mod are required)" >&2
  exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/triserve" ./cmd/triserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -triserve "$out/triserve" -work "$out" "$@"
