#!/usr/bin/env bash
# Builds the benchmark driver and cceserver from the checkout this script sits
# in, then runs the driver with the given arguments:
#
#   bash _perfbench/run.sh --workload explain_cold_300k --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Everything it writes (Go build cache, binaries,
# per-run state directories, span files) lands under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local

# Build output goes to stderr: the driver's last stdout line is its result.
(
	cd "$root/_perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/cceserver" github.com/xai-db/relativekeys/cmd/cceserver
) >&2

exec "$out/bin/perfbench" -server "$out/bin/cceserver" -work "$out" "$@"
