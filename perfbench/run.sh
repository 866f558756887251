#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload advise --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
go -C perfbench build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
