#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash e2ebench/run.sh --workload fanout_full --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, cache and scratch
# file stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (go.mod and e2ebench/go.mod required)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its env file and telemetry under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$build/e2ebench.bin" .)
exec "$build/e2ebench.bin" "$@"
