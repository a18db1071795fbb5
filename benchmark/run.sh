#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Build cache, binary, live-dictionary scratch directories
# and result files all stay under the checkout (.bench_build/, benchmark/out/).
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod"
export GOTOOLCHAIN=local
(cd benchmark && go build -buildvcs=false -o "$root/.bench_build/simbench" .)
exec "$root/.bench_build/simbench" "$@"
