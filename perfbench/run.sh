#!/usr/bin/env bash
# Builds the daemons and the benchmark from this checkout, then runs one
# workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload live-grid --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0
# Daemons are built without -race: the benchmark measures the program,
# not the race detector.
go build -o "$out/bin/" ./cmd/ariad ./cmd/ariagate >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
