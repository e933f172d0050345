#!/usr/bin/env bash
# Builds and runs the asap-load benchmark. Run it from the repository
# root:
#
#	bash cmd/asap-load/run.sh [-workload NAME] [-seed N] [-trace 0|1] [-o FILE]
#
# The measured window is run_seconds in BENCHMARK.json; -seconds is
# accepted only with that value.
#
# The Go build cache, the go command's config and telemetry files,
# temporary files, binaries, server data dirs and outputs all stay
# under .bench_build/ in the current directory. The toolchain is pinned
# to the local one and the module proxy is off, so the build never
# reaches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -C cmd/asap-load -o "$build/asap-load" .
exec "$build/asap-load" "$@"
