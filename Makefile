GO ?= go

# Packages with nontrivial concurrency: the worker pools, the sharded
# executor, the result cache and its coalescer, the HTTP server, the parallel
# scan engine, the lock-free metrics primitives, the bench harness's
# concurrent drivers, the trie (shared frontier rows under NearestK), the
# LSM store (searches racing writes, flushes, and background compaction),
# the cascade (shared engine state under concurrent queries), the
# scatter-gather coordinator (hedged RPCs, breakers, admission control),
# the analysis framework (its fixture loader shares a package cache that
# the dual test units exercise), the engine facade (interruptible search runs
# an engine on a goroutine of its own) and the parallel join.
# TestCILists (ci_test.go) fails when a package whose own code starts
# goroutines is missing here, or a fuzz target from fuzz-smoke below.
RACE_PKGS = ./internal/pool ./internal/exec ./internal/cache ./internal/httpapi ./internal/scan ./internal/metrics ./internal/bench ./internal/trie ./internal/lsm ./internal/cascade ./internal/distrib ./internal/analysis ./internal/core ./internal/join

FUZZ_SMOKE_TIME ?= 5s

.PHONY: check build fmt vet lint test race fuzz fuzz-smoke bench bench-smoke benchmark-smoke clean

check: fmt vet lint test race bench-smoke benchmark-smoke fuzz-smoke ## everything CI runs

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repo's own invariant analyzers (internal/analysis), including the
# interprocedural concurrency suite (lockorder, unlockpath, blockunderlock,
# goleak). Findings fail the build — and so do malformed or stale
# //lint:ignore directives, which are findings themselves. lint.json is the
# machine-readable CI artifact; `-why <analyzer>` prints each finding's
# call-graph/lockset evidence.
lint:
	$(GO) run ./cmd/simlint -report lint.json ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Short differential-fuzz smoke of every engine family vs the oracle.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzEnginesAgree -fuzztime=15s .
	$(GO) test -run=NONE -fuzz=FuzzDifferential -fuzztime=15s ./internal/exec

# Every fuzz target for FUZZ_SMOKE_TIME each; part of `make check`.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzEnginesAgree$$' -fuzztime=$(FUZZ_SMOKE_TIME) .
	$(GO) test -run=NONE -fuzz='^FuzzBitParallelIdentical$$' -fuzztime=$(FUZZ_SMOKE_TIME) .
	$(GO) test -run=NONE -fuzz='^FuzzCascadeIdentical$$' -fuzztime=$(FUZZ_SMOKE_TIME) .
	$(GO) test -run=NONE -fuzz='^FuzzDifferential$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/exec
	$(GO) test -run=NONE -fuzz='^FuzzCachedIdentical$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/cache
	$(GO) test -run=NONE -fuzz='^FuzzKernelsAgree$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/edit
	$(GO) test -run=NONE -fuzz='^FuzzOpsRoundTrip$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/edit
	$(GO) test -run=NONE -fuzz='^FuzzAutomatonAgreesWithDP$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/lev
	$(GO) test -run=NONE -fuzz='^FuzzReadNeverPanics$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/trie
	$(GO) test -run=NONE -fuzz='^FuzzLiveIdentical$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/lsm
	$(GO) test -run=NONE -fuzz='^FuzzCoordMerge$$' -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/distrib

# Micro-benchmarks (go test -bench) plus the bit-parallel ablation
# (BENCH_4.json), the cascade stage ablation over the DNA workload
# (BENCH_7.json) and the distributed serving sweep (BENCH_8.json) for
# cross-PR perf tracking.
bench:
	$(GO) test -bench . -benchmem -run=NONE .
	$(GO) run ./cmd/paperbench -workload city -bitparallel -json BENCH_4.json
	$(GO) run ./cmd/paperbench -workload dna -cascade -json BENCH_7.json
	$(GO) run ./cmd/paperbench -distrib -json BENCH_8.json

# One iteration of every benchmark; part of CI so bench code cannot rot.
# The cascade smoke additionally fails if any enabled filter stage stops
# pruning (or diverges from the DP oracle) on a tiny dataset of each
# alphabet. The bounded-kernel benchmark is run again with its output shown: ns/cmp at
# k = 31 (band kernel) against k = 32 (blocked kernel) is the step between the
# two compiled kernels, and the run fails if either loses the query itself.
# Beside it, the cascade over 100,000 cities (k = 0..3) and 10,000 reads
# (k = 0, 4, 8): ns per slot of the length window, block summaries tested,
# words read in the blocks they kept, slots past the first word and kernel
# calls per query (the last two differ on reads: the gram word sits between);
# and the live store (seed segment + three flushed segments + 500-entry
# delta, cities and reads): ns and allocations per query, strings a query's
# signature word leaves for the kernel, and ns per insert.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./... > /dev/null
	$(GO) test -run='^$$' -bench='^BenchmarkBoundedKernels$$' -benchtime=200x ./internal/edit
	$(GO) test -run='^$$' -bench='^BenchmarkCascadeBytes$$' -benchtime=300x ./internal/cascade
	$(GO) test -run='^$$' -bench='^BenchmarkLive(Search|Insert)$$' -benchtime=2000x ./internal/lsm
	$(GO) run ./cmd/paperbench -cascadecheck

# The fixed benchmark (benchmark/, a Go module of its own that `go test ./...`
# at the root does not descend into): its tests, then every workload once at
# corpus x0.02, which fails on any operation the DP oracle rejects.
benchmark-smoke:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh -smoke

clean:
	$(GO) clean ./...
