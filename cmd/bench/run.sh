#!/usr/bin/env bash
# Builds the benchmark and the parparawd daemon it drives from this
# checkout, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash cmd/bench/run.sh -workload bulk-taxi -seed 1 -seconds 15 -trace 0
#
# Everything the build writes (binaries, Go build cache, spans) stays in
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/parparawd || ! -f cmd/bench/go.mod ]]; then
	echo "run.sh: run from the repository root (needs go.mod, cmd/parparawd, cmd/bench)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/parparawd" ./cmd/parparawd
(cd cmd/bench && go build -o "$build/bench" .)
exec "$build/bench" -parparawd "$build/parparawd" "$@"
