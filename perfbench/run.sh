#!/usr/bin/env bash
# Builds the shipped binaries (cmd/icewafl, cmd/icewafld) and the harness
# from source, then runs one benchmark invocation. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload cli-columnar --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory (Go build cache included), and the Go tool is kept offline.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin" "$build/run"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$build/bin/icewafl" ./cmd/icewafl
go build -o "$build/bin/icewafld" ./cmd/icewafld
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/run" "$@"
