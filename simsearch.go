// Package simsearch is the public API of the reproduction of "Trying to
// outperform a well-known index with a sequential scan" (EDBT/ICDT 2013
// Workshops): string similarity search under the unweighted edit distance.
//
// Two primary engines answer the paper's research question:
//
//   - the optimized sequential scan (NewScan / NewParallelScan), which wins
//     on short natural-language strings such as city names, and
//   - the compressed prefix-tree index (NewIndex), which wins on long
//     small-alphabet strings such as genome reads.
//
// A third, the paper's §6 future work built out, is what this library serves
// with:
//
//   - the filtered sweep (NewCascade): a scan
//     over length buckets with a precomputed word per string (and, on
//     reads, a 4-gram set) deciding which candidates reach the
//     bit-parallel kernel. It is ahead of
//     both engines above at every threshold the paper asks on both corpora,
//     so no serving path builds the index unless asked for it by name.
//
// All engines return identical, exhaustive result sets — only their running
// time differs — and each can be checked against the reference
// implementation with Verify.
//
// A minimal session:
//
//	eng := simsearch.NewIndex(cities)
//	for _, m := range eng.Search(simsearch.Query{Text: "Berlni", K: 2}) {
//	    fmt.Println(cities[m.ID], m.Dist)
//	}
package simsearch

import (
	"context"

	"simsearch/internal/cache"
	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/edit"
	"simsearch/internal/exec"
	"simsearch/internal/pool"
	"simsearch/internal/scan"
	"simsearch/internal/trie"
)

// Query is one similarity-search request: all dataset strings within edit
// distance K of Text are returned.
type Query = core.Query

// Match is one result: dataset index and exact edit distance.
type Match = core.Match

// Searcher is the engine interface; every constructor in this package
// returns one.
type Searcher = core.Searcher

// Algorithm selects an engine family for New.
type Algorithm int

const (
	// Scan is the paper's optimized sequential scan (§3).
	Scan Algorithm = iota
	// Trie is the paper's prefix-tree index (§4).
	Trie
	// BitParallel selects the same engine as Cascade and ignores Workers. It
	// named a scan rung that ran the cascade's sweep without its counters
	// and, with Workers > 1, cut one query's window across that many
	// goroutines, a path no benchmark workload or serving path ran
	// (EXPERIMENTS.md, History).
	//
	// Deprecated: use Cascade.
	BitParallel
	// Cascade is the paper's §6 future-work list assembled into one engine:
	// a filter cascade with all query-side state compiled once per query:
	// length bucket → block summary → one precomputed signature word per
	// string (→ a 4-gram set, on reads) → bounded Myers verify over a byte
	// arena. On pure-DNA datasets the word holds the five symbol counts (the
	// frequency-vector filter), on every other dataset occurrence bits of
	// the byte values. Results are identical to Scan; only the pruning
	// differs.
	Cascade
	// Router selects the same engine as Cascade. It named an adaptive
	// router over the scan, the trie and the cascade until the cascade won
	// every cell the router was measured on (EXPERIMENTS.md, History).
	//
	// Deprecated: use Cascade.
	Router
)

// Options configures New. The zero value selects the best serial sequential
// scan.
type Options struct {
	// Algorithm selects the engine family (default Scan).
	Algorithm Algorithm
	// Workers > 1 selects the Scan engine's managed across-queries
	// parallelism (the paper's §3.6 rung: a fixed pool answering whole
	// queries). Other engines answer each query on one goroutine; NewSharded
	// sizes its pool with it.
	Workers int
	// PaperFaithful selects the engines exactly as the paper describes them
	// (§3.2 unbanded kernel for Scan, §4.1 d_m-diagonal pruning for Trie)
	// instead of the faster modern variants this library defaults to.
	// Results are identical either way; only speed differs. The benchmark
	// harness uses the faithful variants to reproduce the paper's tables.
	PaperFaithful bool
	// CacheSize > 0 wraps the engine in a query-result cache with this
	// many entries (see NewCached): repeated queries are answered from a
	// sharded LRU and concurrent identical queries are coalesced into one
	// engine search. Results are always byte-identical to the uncached
	// engine.
	CacheSize int
}

// New constructs a search engine over data according to opts. The data
// slice is retained; string i is reported as Match.ID == i.
func New(data []string, opts Options) Searcher {
	eng := newEngine(data, opts)
	if opts.CacheSize > 0 {
		return NewCached(eng, opts.CacheSize)
	}
	return eng
}

// newEngine builds the bare (uncached) engine for New.
func newEngine(data []string, opts Options) Searcher {
	switch opts.Algorithm {
	case Trie:
		var topts []trie.Option
		if !opts.PaperFaithful {
			topts = append(topts, trie.WithModernPruning())
		}
		return core.NewTrie(data, true, topts...)
	case Cascade, BitParallel, Router:
		// The cascade engine answers each query serially; parallelism comes
		// from sharding (NewSharded) like the other serial engines.
		return core.NewCascade(data)
	default:
		sopts := []scan.Option{scan.WithStrategy(scan.SimpleTypes)}
		if opts.Workers > 1 {
			sopts = []scan.Option{
				scan.WithStrategy(scan.ParallelManaged),
				scan.WithWorkers(opts.Workers),
			}
		}
		if !opts.PaperFaithful {
			sopts = append(sopts, scan.WithBandedKernel())
		}
		return core.NewSequential(data, sopts...)
	}
}

// NewScan returns the paper's best serial sequential scan over data.
func NewScan(data []string) Searcher {
	return New(data, Options{})
}

// NewParallelScan returns the sequential scan with a fixed pool of workers
// answering queries concurrently (workers <= 0 uses GOMAXPROCS).
func NewParallelScan(data []string, workers int) Searcher {
	return core.NewSequential(data,
		scan.WithStrategy(scan.ParallelManaged), scan.WithWorkers(workers),
		scan.WithBandedKernel())
}

// NewIndex returns the library's best index engine: the path-compressed
// prefix tree with modern banded pruning.
func NewIndex(data []string) Searcher {
	return New(data, Options{Algorithm: Trie})
}

// NewBitParallel returns the same engine as NewCascade and ignores workers;
// see BitParallel.
//
// Deprecated: use NewCascade.
func NewBitParallel(data []string, workers int) Searcher {
	return New(data, Options{Algorithm: BitParallel, Workers: workers})
}

// NewCascade returns the filter-cascade engine: the paper's §6 future work
// (length bucketing, frequency-vector filtering) assembled into one serving
// path. Two summary words per block of sixteen strings skip blocks of the
// length window unread; in the blocks kept, one precomputed 64-bit word per
// string decides which candidates go on: the five symbol counts on pure-DNA
// datasets, an occurrence signature of the byte values on every other. On
// pure-DNA datasets a 256-bit set of each read's 4-grams then decides which
// of those reach the kernel; elsewhere the word alone does. Results are
// identical to NewScan on every dataset and query.
func NewCascade(data []string) Searcher {
	return New(data, Options{Algorithm: Cascade})
}

// NewRouter returns the same engine as NewCascade; see Router.
//
// Deprecated: use NewCascade.
func NewRouter(data []string) Searcher {
	return New(data, Options{Algorithm: Router})
}

// SearchBatch answers all queries with eng. Engines with their own batch
// scheduler (the parallel Scan configurations and the Sharded executor) use
// it; others answer serially.
func SearchBatch(eng Searcher, qs []Query) [][]Match {
	return core.SearchBatch(eng, qs, nil)
}

// Sharded is the partition-then-merge batch executor: the dataset is split
// into contiguous shards, each shard runs its own engine, and batches fan
// across shards on a worker pool. Results are always identical to the
// single-engine path; see NewSharded.
type Sharded = exec.Sharded

// QueryResult is one query's outcome in Sharded.SearchBatchContext: either
// its complete match set or the context error that ended it.
type QueryResult = exec.QueryResult

// NewSharded partitions data into shards contiguous partitions, builds one
// engine per shard according to opts (exactly as New does, except shard
// engines are kept serial: opts.Workers sizes the executor's pool, not a
// Scan engine's), and
// answers batches shard-parallel on a fixed pool of opts.Workers goroutines
// (GOMAXPROCS when <= 0). A single query runs its shards one after another
// on the caller's goroutine, and fans them out on that pool only once the
// executor has measured that a shard's share at that threshold is long
// enough to pay for the hand-off.
//
// The executor returns byte-for-byte the same matches in the same order as
// the corresponding single engine, for every shard count; sharding changes
// throughput, never results.
func NewSharded(data []string, shards int, opts Options) *Sharded {
	inner := opts
	inner.Workers = 0
	// A cache belongs above the shard fan-out, not inside every shard
	// (wrap the returned executor with NewCached); shard engines stay bare.
	inner.CacheSize = 0
	return exec.New(data, exec.Options{
		Shards:  shards,
		Factory: func(d []string) core.Searcher { return New(d, inner) },
		Runner:  pool.Fixed{Workers: opts.Workers},
	})
}

// Cached is the query-result cache decorator: a sharded LRU keyed on
// (query text, k, engine name, dataset version) with request coalescing.
// See NewCached.
type Cached = cache.Cache

// NewCached wraps eng in a query-result cache holding up to capacity results
// (capacity <= 0 selects the default 4096). Hits are answered from a sharded
// LRU without touching the engine; concurrent identical queries coalesce
// into exactly one engine search; batch queries answer hits locally and
// forward only the unique misses to the engine's own batch scheduler. The
// cached engine returns byte-identical matches to eng for every query — a
// differential fuzz harness enforces this — and every caller receives its
// own copy of the match slice.
//
// The cache keys every lookup on eng's VersionString when eng (or a layer
// under it) has one, as a Live engine does: each effective mutation advances
// it, which retires every stale entry. A frozen engine never changes, and
// its entries leave only by LRU pressure or Cached.Flush. Cached.Stats
// completes the management surface.
func NewCached(eng Searcher, capacity int) *Cached {
	return cache.New(eng, cache.Options{Capacity: capacity})
}

// SearchContext answers q with eng under ctx: cancellation or deadline
// expiry makes it return promptly with ctx.Err(). Context-aware engines
// (Sharded, the Scan family) abandon in-flight work; other engines finish
// the query on an abandoned goroutine.
func SearchContext(ctx context.Context, eng Searcher, q Query) ([]Match, error) {
	return core.SearchContext(ctx, eng, q)
}

// SearchBatchContext answers the whole batch under ctx, returning per-query
// outcomes in input order. Context-batching engines (the Sharded executor
// and Live — shard-parallel with per-query deadlines — and Cached engines,
// which answer hits locally) run their own scheduler; any other engine
// answers serially.
// A failing query reports its own error; cancelling ctx abandons the batch.
func SearchBatchContext(ctx context.Context, eng Searcher, qs []Query) ([]QueryResult, error) {
	return core.SearchBatchContext(ctx, eng, qs)
}

// Verify checks eng against the paper's reference implementation (the
// unoptimized base scan over data) on the given queries, returning a
// descriptive error on the first divergence. This is the paper's §3.1
// correctness protocol.
func Verify(eng Searcher, data []string, qs []Query) error {
	return core.Verify(eng, core.Reference(data), qs)
}

// Distance returns the unweighted edit distance between two strings
// (paper §2.2).
func Distance(a, b string) int {
	return edit.Distance(a, b)
}

// WithinK reports whether ed(a, b) <= k without always computing the full
// distance (length filter, banded computation, early abort — paper §3.2).
func WithinK(a, b string, k int) bool {
	return edit.WithinK(a, b, k)
}

// GenerateCities produces n synthetic city names with the statistical
// profile of the paper's city-name dataset (Table I). Deterministic in seed.
func GenerateCities(n int, seed int64) []string {
	return dataset.Cities(n, seed)
}

// GenerateDNAReads produces n synthetic genome reads with the profile of the
// paper's DNA dataset (Table I). Deterministic in seed.
func GenerateDNAReads(n int, seed int64) []string {
	return dataset.DNAReads(n, seed)
}

// GenerateQueries draws n near-match queries from data, each within maxEdits
// edits of some dataset string.
func GenerateQueries(data []string, n, maxEdits int, seed int64) []string {
	return dataset.Queries(data, n, maxEdits, seed)
}

// LoadStrings reads a one-string-per-line dataset file.
func LoadStrings(path string) ([]string, error) {
	return dataset.Load(path)
}
