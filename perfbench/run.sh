#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it from the
# checkout root. Every build product (Go's build cache included) stays
# under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload report-cold --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/go-cache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$root/.bench_build/perfbench-bin" . >&2
exec "$root/.bench_build/perfbench-bin" -root "$root" "$@"
