#!/usr/bin/env bash
# Builds sinrbench from the checkout it is run in and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/sinrbench/run.sh -workload mac_dense -seed 1
#
# The toolchain's caches, configuration and telemetry and the binary live
# under .bench_build/ in the checkout, and the toolchain never reaches the
# network, so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOPATH="$build/gopath"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOPATH" "$GOCACHE" "$GOMODCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$root/cmd/sinrbench" && go build -o "$build/sinrbench" .)
exec "$build/sinrbench" "$@"
