#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload campaign-avr-seu --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, binary, scratch files) stays under
# .bench_build in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
