GO ?= go

# Packages with nontrivial concurrency: the worker pools, the sharded
# executor, the result cache and its coalescer, the HTTP server, the parallel
# scan engine, the lock-free metrics primitives, the paper harness (its
# thread sweeps drive the parallel engines), the LSM store (searches racing
# writes, flushes, and background compaction), the scatter-gather
# coordinator (hedged RPCs, breakers, admission control), the analysis
# framework (its fixture loader shares a package cache that the dual test
# units exercise), the engine facade (interruptible search runs an engine on
# a goroutine of its own) and the engine wrappers (the cascade's shared
# counters under concurrent queries, and the join's probes on a fixed pool).
# TestCILists (ci_test.go) fails when a package whose own code starts
# goroutines is missing here, or a fuzz target from fuzz-smoke below.
RACE_PKGS = ./internal/pool ./internal/exec ./internal/cache ./internal/httpapi ./internal/scan ./internal/metrics ./internal/bench ./internal/lsm ./internal/distrib ./internal/analysis ./internal/core

FUZZ_SMOKE_TIME ?= 5s

.PHONY: check build fmt vet lint test portable race fuzz fuzz-smoke bench bench-smoke benchmark-smoke clean

check: fmt vet lint test portable race bench-smoke benchmark-smoke fuzz-smoke ## everything CI runs

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repo's own invariant analyzers (internal/analysis: ctxpoll,
# copyonread, hotalloc, nosleeptest). Findings fail the build — and so do
# malformed or stale //lint:ignore directives, which are findings
# themselves. lint.json is the machine-readable CI artifact. Lock order,
# lock release and goroutine exit are checked by tests in the race suite
# (DESIGN.md §16), not here.
lint:
	$(GO) run ./cmd/simlint -report lint.json ./...

test: build
	$(GO) test ./...

# The portable path: off amd64 the occurrence-word loops run in Go, not in
# internal/scan's POPCNT kernels (scalar, with an AVX-512 VPOPCNTQ head
# where the CPU has one). The sweep's packages are tested on 386 (which also
# runs on an amd64 host and has a 32-bit uint), and the non-amd64 file set
# of internal/scan is built and vetted for arm64. Not ./... on 386:
# simlint's loader type-checks net, which needs cgo there.
portable:
	GOARCH=386 $(GO) test ./internal/scan ./internal/core ./internal/lsm .
	GOARCH=arm64 $(GO) vet ./internal/scan

race:
	$(GO) test -race $(RACE_PKGS)

# Short differential-fuzz smoke of every engine family vs the oracle.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzEnginesAgree -fuzztime=15s .
	$(GO) test -run=NONE -fuzz=FuzzDifferential -fuzztime=15s ./internal/exec

# Every fuzz target for FUZZ_SMOKE_TIME each; part of `make check`.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzEnginesAgree$$' -fuzztime=$(FUZZ_SMOKE_TIME) .
	$(GO) test -run=NONE -fuzz='^FuzzCascadeIdentical$$' -fuzztime=$(FUZZ_SMOKE_TIME) .
	$(GO) test -run=NONE -fuzz='^FuzzDifferential$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/exec
	$(GO) test -run=NONE -fuzz='^FuzzCachedIdentical$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/cache
	$(GO) test -run=NONE -fuzz='^FuzzKernelsAgree$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/edit
	$(GO) test -run=NONE -fuzz='^FuzzTrieAgrees$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/trie
	$(GO) test -run=NONE -fuzz='^FuzzTrieShape$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/trie
	$(GO) test -run=NONE -fuzz='^FuzzLiveIdentical$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/lsm
	$(GO) test -run=NONE -fuzz='^FuzzCoordMerge$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/distrib
	$(GO) test -run=NONE -fuzz='^FuzzSelfJoin$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/core
	$(GO) test -run=NONE -fuzz='^FuzzGramSetBound$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/scan
	$(GO) test -run=NONE -fuzz='^FuzzOccurrenceKernels$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/scan

# Micro-benchmarks (go test -bench). The paper's tables are
# `go run ./cmd/paperbench`; the serving stack is measured by the fixed
# benchmark (benchmark/), not here. TestCILists (ci_test.go) fails when a
# root BENCH_*.json has no -json line here, or a -json line names a file
# that is not committed.
bench:
	$(GO) test -bench . -benchmem -run=NONE .

# One iteration of every benchmark; part of CI so bench code cannot rot.
# The bounded-kernel benchmark is run again with its output shown: ns/cmp at
# k = 31 (band kernel) against k = 32 (blocked kernel) is the step between the
# two compiled kernels, and the run fails if either loses the query itself.
# Beside it, the cascade over 100,000 cities (k = 0..3) and 10,000 reads
# (k = 0, 4, 8, 12): ns per slot of the length window, ns per word read (the
# number the occurrence-word kernels move on cities), block summaries
# tested, words read in the blocks they kept, slots past the first word and
# kernel calls per query (the last two differ on reads: the 4-gram set sits
# between); the occurrence-word loops themselves, ns per word for the Go
# loop, the scalar POPCNT kernel and its AVX-512 head over runs of 16, 64
# and 1,024 words, and ns per block over one 64-block mask; the index's
# build on 100,000 and 50,000 names and 10,000 reads: ns per string and
# allocations per build (a few, and one per duplicated string); and the
# live store (seed segment + three flushed segments + 500-entry delta,
# cities and reads): ns and allocations per query, strings a query's
# signature word leaves for the kernel, and ns per insert. Last, a 2-store
# live executor's single queries from a few µs a store to a few hundred:
# ns/op under the split-or-inline rule and pinned to each branch,
# and the share of queries the rule fanned out (split/query). Whether the
# cascade stays exact and every stage keeps pruning is tier-1's
# (TestByteStatsFunnel, TestBlockSummaryStrength, TestWorkGolden).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./... > /dev/null
	$(GO) test -run='^$$' -bench='^BenchmarkBoundedKernels$$' -benchtime=200x ./internal/edit
	$(GO) test -run='^$$' -bench='^BenchmarkCascadeBytes$$' -benchtime=300x ./internal/core
	$(GO) test -run='^$$' -bench='^BenchmarkOccurrenceKernels$$' -benchtime=20000x ./internal/scan
	$(GO) test -run='^$$' -bench='^BenchmarkTrieBuild$$' -benchtime=3x .
	$(GO) test -run='^$$' -bench='^BenchmarkLive(Search|Insert)$$' -benchtime=2000x ./internal/lsm
	$(GO) test -run='^$$' -bench='^BenchmarkSplitOrInline$$' -benchtime=200x ./internal/exec

# The fixed benchmark (benchmark/, a Go module of its own that `go test ./...`
# at the root does not descend into): its tests, then every workload once at
# corpus x0.02, which fails on any operation the DP oracle rejects.
benchmark-smoke:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh -smoke

clean:
	$(GO) clean ./...
