#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced runs' span dumps all go under .bench_build/perfbench.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench.new" .) >&2
mv -f "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
