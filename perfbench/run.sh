#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload pct-campaign --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and the traced runs' spans all go under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's environment file and telemetry
# counters inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
