#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload fresh-inproc --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write stays under .bench_build/ there: the Go build cache, the toolchain's
# config directory, the binary, and the run's scratch stores (removed when
# the run ends).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
	GOPROXY=off GOWORK=off GOENV=off XDG_CONFIG_HOME="$build/config"
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -dir "$build" "$@"
