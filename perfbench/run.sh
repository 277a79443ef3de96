#!/usr/bin/env bash
# Builds the benchmark harness and the servers it drives from the source
# tree it sits in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload dequed-pipelined --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files all stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/dequed" ./cmd/dequed
go build -o "$out/bin/schedd" ./cmd/schedd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" "$@"
