#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of
# the repository; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload drive --seed 20201104 --seconds 20 --trace 0
#
# The Go build cache, the binary and everything a run writes stay
# under .bench_build/ in the repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
