#!/usr/bin/env bash
# Builds dpdserver and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload paper_traces --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --repeat 10 --workload serve_nested_mixed
#
# Everything it builds, caches or writes stays under the build directory
# (.bench_build, or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/dpdserver" ./cmd/dpdserver >&2
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -server "$out/dpdserver" -work "$out" "$@"
