#!/usr/bin/env bash
# Builds perf/ from source inside the checkout and runs it. Everything
# the toolchain and the benchmark write (build cache, binary, temp
# files, spill segments) stays under .bench_build/ and perf/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perf" && go build -o "$build/perf" .)
cd "$root"
exec "$build/perf" "$@"
