#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash bench/run.sh --workload azure-steady --seed 1 --seconds 20 --trace 0
# The build cache, module cache, Go configuration and CPU profiles all stay
# under .bench_build in the working directory, and nothing is downloaded.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	PPROF_TMPDIR="$build/pprof" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$build"
go -C bench build -o "$build/slinfer-bench" .
exec "$build/slinfer-bench" "$@"
