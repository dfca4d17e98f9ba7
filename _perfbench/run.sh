#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash _perfbench/run.sh --workload flat_flow --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and span files stay in .bench_build
# inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out" \
	GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
go -C _perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
