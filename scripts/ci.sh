#!/bin/sh
# CI entry point: formatting, static checks, full test suite, the
# race-detector pass over the concurrent packages, and a short fuzz smoke
# of every fuzz target. Mirrors `make check` for environments without make.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== lint =="
# The repo's own invariant analyzers, including the interprocedural
# concurrency suite (lockorder, unlockpath, blockunderlock, goleak).
# Malformed and stale //lint:ignore directives are findings, so they fail
# CI here too. lint.json is the machine-readable findings artifact.
go run ./cmd/simlint -report lint.json ./...

echo "== test =="
go test ./...

echo "== race =="
go test -race ./internal/pool ./internal/exec ./internal/cache ./internal/httpapi ./internal/scan ./internal/metrics ./internal/bench ./internal/trie ./internal/lsm ./internal/cascade ./internal/distrib ./internal/router ./internal/analysis

echo "== bench smoke =="
# One iteration of every benchmark, so bench code cannot silently rot; the
# cascade check fails if an enabled filter stage stops pruning on a tiny
# dataset of either alphabet or diverges from the DP oracle. The bounded-kernel benchmark
# runs again with its output shown: ns/cmp at k = 31 (band kernel) against
# k = 32 (blocked kernel) is the step between the two compiled kernels.
# Beside it, the cascade over 100,000 cities (k = 0..3) and 10,000 reads
# (k = 0, 4, 8): ns per slot of the length window, slots past the first word
# and kernel calls per query (they differ on reads: the gram word sits between);
# and the live store (seed segment + three flushed segments + 500-entry
# delta, cities and reads): ns and allocations per query, strings a query's
# signature word leaves for the kernel, and ns per insert.
go test -run='^$' -bench=. -benchtime=1x ./... > /dev/null
go test -run='^$' -bench='^BenchmarkBoundedKernels$' -benchtime=200x ./internal/edit
go test -run='^$' -bench='^BenchmarkCascadeBytes$' -benchtime=300x ./internal/cascade
go test -run='^$' -bench='^BenchmarkLive(Search|Insert)$' -benchtime=2000x ./internal/lsm
go run ./cmd/paperbench -cascadecheck

echo "== benchmark smoke =="
# The fixed benchmark is a Go module of its own, so `go test ./...` above
# does not reach it: its tests, then every workload once at corpus x0.02,
# which fails on any operation the DP oracle rejects.
(cd benchmark && go test ./...)
bash benchmark/run.sh -smoke

echo "== fuzz smoke =="
go test -run=NONE -fuzz='^FuzzEnginesAgree$' -fuzztime=5s .
go test -run=NONE -fuzz='^FuzzBitParallelIdentical$' -fuzztime=5s .
go test -run=NONE -fuzz='^FuzzCascadeIdentical$' -fuzztime=5s .
go test -run=NONE -fuzz='^FuzzRouterIdentical$' -fuzztime=5s .
go test -run=NONE -fuzz='^FuzzDifferential$' -fuzztime=5s ./internal/exec
go test -run=NONE -fuzz='^FuzzCachedIdentical$' -fuzztime=5s ./internal/cache
go test -run=NONE -fuzz='^FuzzKernelsAgree$' -fuzztime=5s ./internal/edit
go test -run=NONE -fuzz='^FuzzOpsRoundTrip$' -fuzztime=5s ./internal/edit
go test -run=NONE -fuzz='^FuzzAutomatonAgreesWithDP$' -fuzztime=5s ./internal/lev
go test -run=NONE -fuzz='^FuzzReadNeverPanics$' -fuzztime=5s ./internal/trie
go test -run=NONE -fuzz='^FuzzLiveIdentical$' -fuzztime=5s ./internal/lsm
go test -run=NONE -fuzz='^FuzzCoordMerge$' -fuzztime=5s ./internal/distrib

echo "CI green."
