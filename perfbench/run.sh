#!/usr/bin/env bash
# Builds streamd and the benchmark from the checked-out tree, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload q1-tumbling --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# working directory, the Go build cache included.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/streamd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/streamd and perfbench/ must be present)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$PWD/$out/gocache"
export GOPATH="$PWD/$out/gopath"
export XDG_CONFIG_HOME="$PWD/$out/config"
export GOTMPDIR="$PWD/$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOENV=off

go build -o "$out/bin/streamd" ./cmd/streamd
(cd perfbench && go build -o "../$out/bin/perfbench" .)
exec "$out/bin/perfbench" -streamd "$out/bin/streamd" -out "$out" "$@"
