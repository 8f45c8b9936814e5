#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout this is
# run from (its root), then runs it with the arguments given. The Go build
# cache lives there too, so nothing outside the checkout is read or written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/purity-benchmark" .
exec "$build/purity-benchmark" "$@"
