#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it from the
# checkout's root. Everything the build leaves behind goes to .bench_build
# in the checkout; nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/vamana-bench" .) >&2
cd "$root"
exec "$build/vamana-bench" "$@"
