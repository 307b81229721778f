#!/usr/bin/env bash
# Builds gcserved, gcrouter and the benchmark from this checkout's
# sources, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gcserved || ! -d cmd/gcrouter || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the graphcache sources are missing" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build/perfbench
mkdir -p "$out/bin"
# Keep the Go build cache and configuration inside the checkout, and
# never reach for the network: the build needs nothing outside the repo.
export GOCACHE=$root/.bench_build/gocache
export GOPATH=$root/.bench_build/gopath
export XDG_CONFIG_HOME=$root/.bench_build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

go build -o "$out/bin/" ./cmd/gcserved ./cmd/gcrouter
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" "$@"
