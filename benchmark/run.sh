#!/usr/bin/env bash
# Builds the benchmark against the repository it sits in and runs it with the
# arguments given. Everything the build and the run write stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/nbtrie-benchmark" .)
exec "$build/nbtrie-benchmark" -dir "$build/run" "$@"
