#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build and the run write — the Go build cache, the
# binary, temp stores — stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export TMPDIR="$build/tmp"
go build -C "$root/bench" -o "$build/roambench" .
cd "$root"
exec "$build/roambench" "$@"
