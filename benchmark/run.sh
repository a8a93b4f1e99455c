#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout's root. Everything the build writes (Go's
# build cache included) stays under .bench_build in that checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$here" && go build -o "$build/acep-benchmark" .) >&2
cd "$root"
exec "$build/acep-benchmark" "$@"
