#!/usr/bin/env bash
# Builds icrowd-server, icrowd-router and the benchmark from this checkout
# into .bench_build/bin, then runs the benchmark with the given arguments:
#
#   bash icbench/run.sh --workload adaptive --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# (the Go build cache included) stays under .bench_build.
set -euo pipefail

[ -f go.mod ] && [ -f icbench/go.mod ] || { echo "run.sh: run from the root of an icrowd checkout" >&2; exit 2; }

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/icrowd-server" ./cmd/icrowd-server >&2
go build -o "$out/bin/icrowd-router" ./cmd/icrowd-router >&2
(cd icbench && go build -o "$out/bin/icbench" .) >&2
exec "$out/bin/icbench" "$@"
