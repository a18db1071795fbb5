#!/bin/sh
# CI entry point. Everything CI runs is `make check` (see the Makefile):
# formatting, vet, the repo's own lint suite, the full test suite, the
# sweep's tests on 386 and its non-amd64 files vetted for arm64, the
# race-detector pass over the packages that start goroutines, one iteration
# of every benchmark with the cascade and kernel gates, the fixed benchmark's
# tests and smoke run, and a short fuzz smoke of every fuzz target. The lists
# live in the Makefile alone; TestCILists (ci_test.go) fails when a fuzz
# target or a goroutine-starting package is missing from them.
set -eu

cd "$(dirname "$0")/.."

make check

echo "CI green."
