#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on (see bench/README.md). Run it from anywhere inside the repository.
#
# The build stays inside the repository: the Go build cache, temporary
# files, GOPATH and the go command's own config and telemetry go to
# .bench_build/, and the toolchain never downloads anything.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C bench build -o "$build/flockbench" .
exec "$build/flockbench" "$@"
