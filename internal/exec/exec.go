// Package exec is the serving-path executor: it partitions a dataset into P
// contiguous shards, builds one engine per shard (any core.Searcher — scan,
// trie, BK-tree, …), and fans batches of queries across a pool.Runner so the
// shard×query task grid saturates the machine. It extends the paper's
// §3.5–3.6 parallelism ladder, which stops at "one fixed pool per query
// batch", with the partition-then-merge layer a production service needs:
// sharding, batching, context cancellation, and per-query deadlines.
//
// Determinism guarantee: shards cover contiguous ID ranges in dataset order
// and every engine returns matches sorted by ID, so concatenating the
// per-shard results in shard order (after adding each shard's base offset)
// reproduces exactly the ID-sorted result set the single-engine path emits —
// for every shard count, every factory, and every runner. Scheduling only
// changes when a slot is filled, never what ends up in it.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"simsearch/internal/cascade"
	"simsearch/internal/core"
	"simsearch/internal/metrics"
	"simsearch/internal/pool"
	"simsearch/internal/scan"
	"simsearch/internal/stats"
	"simsearch/internal/trie"
)

// Factory builds one shard engine over that shard's slice of the dataset.
// Match IDs local to the slice are remapped to global IDs by the executor.
type Factory func(data []string) core.Searcher

// DefaultFactory builds the library's best serial scan (banded SimpleTypes),
// the engine the paper found fastest on short natural-language strings.
func DefaultFactory(data []string) core.Searcher {
	return core.NewSequential(data,
		scan.WithStrategy(scan.SimpleTypes), scan.WithBandedKernel())
}

// ScanFactory builds sequential-scan shards with the given options.
func ScanFactory(opts ...scan.Option) Factory {
	return func(data []string) core.Searcher {
		return core.NewSequential(data, opts...)
	}
}

// BitParallelFactory builds bit-parallel scan shards: query-compiled Myers
// kernel over a length-bucketed byte arena. Shard engines stay serial — the
// executor's shard fan-out already supplies the parallelism, so intra-query
// chunking inside a shard would only oversubscribe the pool.
func BitParallelFactory() Factory {
	return func(data []string) core.Searcher {
		return core.NewSequential(data, scan.WithStrategy(scan.BitParallel))
	}
}

// CascadeFactory builds filter-cascade shards (length bucket, one signature
// word per string, bounded Myers verify; the word holds symbol counts when
// the shard is pure DNA). Shard engines stay serial like BitParallelFactory's —
// the executor's shard fan-out already supplies the parallelism. Options
// select ablation variants.
func CascadeFactory(opts ...cascade.Option) Factory {
	return func(data []string) core.Searcher {
		return core.NewCascade(data, opts...)
	}
}

// TrieFactory builds prefix-tree shards (compress selects the §4.2 variant).
func TrieFactory(compress bool, opts ...trie.Option) Factory {
	return func(data []string) core.Searcher {
		return core.NewTrie(data, compress, opts...)
	}
}

// BKTreeFactory builds BK-tree shards.
func BKTreeFactory() Factory {
	return func(data []string) core.Searcher {
		return core.NewBKTree(data)
	}
}

// Options configures New. The zero value gives one shard per CPU, the default
// scan factory, and a fixed pool of GOMAXPROCS workers.
type Options struct {
	// Shards is the partition count P (default GOMAXPROCS, clamped to the
	// dataset size so no shard is empty).
	Shards int
	// Factory builds each shard's engine (default DefaultFactory).
	Factory Factory
	// Runner schedules the shard×query task grid (default
	// pool.Fixed{Workers: GOMAXPROCS}). Any of the paper's strategies works.
	Runner pool.Runner
	// QueryTimeout, when positive, gives every query in a
	// SearchBatchContext call its own deadline, measured from batch
	// submission (a client-style deadline, not an execution budget). Expired
	// queries report context.DeadlineExceeded in their QueryResult.
	QueryTimeout time.Duration
	// SlowLog, when non-nil, receives one line per shard task slower than
	// its threshold (shard-level slow queries, complementing the HTTP
	// layer's request-level slow log).
	SlowLog *metrics.SlowLog
}

// shard is one partition: an engine over a contiguous slice of the dataset
// plus the global ID of its first string.
type shard struct {
	eng  core.Searcher
	base int32
}

// Sharded is the partition-then-merge executor. It implements core.Searcher,
// core.Batcher, and core.ContextSearcher, so it drops in anywhere a single
// engine does while answering batches shard-parallel.
type Sharded struct {
	data         []string
	shards       []shard
	runner       pool.Runner
	queryTimeout time.Duration
	counters     []*stats.Counter
	slow         *metrics.SlowLog
	name         string
}

// New partitions data into opts.Shards contiguous shards and builds one
// engine per shard. The data slice is retained; string i keeps global ID i.
func New(data []string, opts Options) *Sharded {
	p := opts.Shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if n := len(data); p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	factory := opts.Factory
	if factory == nil {
		factory = DefaultFactory
	}
	runner := opts.Runner
	if runner == nil {
		runner = pool.Fixed{Workers: runtime.GOMAXPROCS(0)}
	}
	s := &Sharded{
		data:         data,
		shards:       make([]shard, p),
		runner:       runner,
		queryTimeout: opts.QueryTimeout,
		counters:     make([]*stats.Counter, p),
		slow:         opts.SlowLog,
	}
	n := len(data)
	for i := 0; i < p; i++ {
		lo, hi := i*n/p, (i+1)*n/p
		s.shards[i] = shard{eng: factory(data[lo:hi]), base: int32(lo)}
		s.counters[i] = stats.NewCounter()
	}
	s.name = fmt.Sprintf("sharded-%d/%s", p, s.shards[0].eng.Name())
	return s
}

// Name implements core.Searcher.
func (s *Sharded) Name() string { return s.name }

// Len implements core.Searcher.
func (s *Sharded) Len() int { return len(s.data) }

// NumShards returns the partition count P.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardSizes returns the number of strings in each shard.
func (s *Sharded) ShardSizes() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.eng.Len()
	}
	return out
}

// ShardEngines returns each shard's engine in shard order, for observability
// surfaces that aggregate engine-specific state across the partition (the
// httpapi /stats cascade section). Callers must not mutate engine state.
func (s *Sharded) ShardEngines() []core.Searcher {
	out := make([]core.Searcher, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.eng
	}
	return out
}

// CounterSnapshots returns a point-in-time copy of every shard's serving
// counters (queries answered, matches produced, cumulative busy time).
func (s *Sharded) CounterSnapshots() []stats.CounterSnapshot {
	out := make([]stats.CounterSnapshot, len(s.counters))
	for i, c := range s.counters {
		out[i] = c.Snapshot()
	}
	return out
}

// ResetCounters zeroes every shard counter.
func (s *Sharded) ResetCounters() {
	for _, c := range s.counters {
		c.Reset()
	}
}

// SetSlowLog installs (or, with nil, removes) the shard-level slow-query
// log. Call before serving traffic; the field is read without
// synchronization on the hot path.
func (s *Sharded) SetSlowLog(l *metrics.SlowLog) { s.slow = l }

// RegisterMetrics exposes every shard's serving counters and latency
// histogram on reg under simsearch_shard_* names with a shard label. The
// registered funcs read the live counters, so one registration covers the
// executor's whole lifetime.
func (s *Sharded) RegisterMetrics(reg *metrics.Registry) {
	for i, c := range s.counters {
		c := c
		lbl := metrics.L("shard", strconv.Itoa(i))
		reg.CounterFunc("simsearch_shard_queries_total",
			"Shard tasks answered, by shard.",
			func() float64 { return float64(c.Snapshot().Queries) }, lbl)
		reg.CounterFunc("simsearch_shard_matches_total",
			"Matches produced, by shard.",
			func() float64 { return float64(c.Snapshot().Matches) }, lbl)
		reg.CounterFunc("simsearch_shard_busy_seconds_total",
			"Cumulative time spent answering shard tasks, by shard.",
			func() float64 { return c.Snapshot().Busy.Seconds() }, lbl)
		reg.RegisterHistogram("simsearch_shard_task_seconds",
			"Latency of individual shard tasks.", c.Latency(), lbl)
		size := float64(s.shards[i].eng.Len())
		reg.GaugeFunc("simsearch_shard_strings",
			"Strings held, by shard.",
			func() float64 { return size }, lbl)
	}
}

// searchShard answers q on shard i, remaps local IDs to global IDs, and
// records the shard's counters. A nil ctx runs the uninterruptible fast path.
func (s *Sharded) searchShard(ctx context.Context, i int, q core.Query) ([]core.Match, error) {
	sh := s.shards[i]
	start := time.Now()
	var ms []core.Match
	var err error
	if ctx == nil {
		ms = sh.eng.Search(q)
	} else {
		ms, err = core.SearchContext(ctx, sh.eng, q)
	}
	if err != nil {
		return nil, err
	}
	for j := range ms {
		ms[j].ID += sh.base
	}
	took := time.Since(start)
	s.counters[i].Observe(len(ms), took)
	s.slow.Observe("", sh.eng.Name(), i, q.Text, q.K, took)
	return ms, nil
}

// merge concatenates per-shard results in shard order. Contiguous shards +
// per-engine ID order make the concatenation globally ID-sorted.
func merge(per [][]core.Match) []core.Match {
	total := 0
	for _, p := range per {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]core.Match, 0, total)
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// Search implements core.Searcher: one query, all shards in parallel.
func (s *Sharded) Search(q core.Query) []core.Match {
	per := make([][]core.Match, len(s.shards))
	s.runner.Run(len(s.shards), func(i int) {
		per[i], _ = s.searchShard(nil, i, q)
	})
	return merge(per)
}

// SearchContext implements core.ContextSearcher. It returns promptly with
// ctx.Err() once ctx is done: unstarted shard tasks are skipped, context-aware
// shard engines abandon their in-flight work, and only plain engines run
// their current task to completion on an abandoned pool worker.
func (s *Sharded) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	if ctx == nil || ctx.Done() == nil {
		return s.Search(q), nil
	}
	per := make([][]core.Match, len(s.shards))
	errs := make([]error, len(s.shards))
	err := pool.RunContext(ctx, s.runner, len(s.shards), func(i int) {
		per[i], errs[i] = s.searchShard(ctx, i, q)
	})
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return merge(per), nil
}

// SearchBatch implements core.Batcher: the len(qs)×P task grid is fanned
// across the runner and per-query results are returned in input order.
func (s *Sharded) SearchBatch(qs []core.Query) [][]core.Match {
	p := len(s.shards)
	per := make([][]core.Match, len(qs)*p)
	s.runner.Run(len(qs)*p, func(t int) {
		per[t], _ = s.searchShard(nil, t%p, qs[t/p])
	})
	out := make([][]core.Match, len(qs))
	for qi := range out {
		out[qi] = merge(per[qi*p : (qi+1)*p])
	}
	return out
}

// QueryResult is one query's outcome in a context batch: either its complete
// match set or the context error (Canceled or DeadlineExceeded) that ended it.
type QueryResult = core.QueryResult

// SearchBatchContext answers the batch under ctx. Cancelling ctx abandons the
// whole batch and returns ctx.Err(); a configured QueryTimeout instead expires
// individual queries, which report DeadlineExceeded in their QueryResult while
// the rest of the batch completes. Results are in input order.
func (s *Sharded) SearchBatchContext(ctx context.Context, qs []core.Query) ([]QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := len(s.shards)
	n := len(qs)
	out := make([]QueryResult, n)
	if n == 0 {
		return out, nil
	}

	qctx := make([]context.Context, n)
	// remaining counts each query's unfinished shard tasks so its context —
	// and with it the deadline timer — is released as soon as the query's
	// last task resolves, not when the whole batch returns. (Deferring all n
	// cancels pinned n timers for the batch lifetime; with thousands of
	// queries per batch that is real memory and timer-heap pressure.)
	var remaining []atomic.Int32
	var cancels []context.CancelFunc
	if s.queryTimeout > 0 {
		remaining = make([]atomic.Int32, n)
		cancels = make([]context.CancelFunc, n)
		for i := range qctx {
			c, cancel := context.WithTimeout(ctx, s.queryTimeout)
			qctx[i] = c
			cancels[i] = cancel
			remaining[i].Store(int32(p))
		}
		// Backstop for tasks the pool skips after a batch-level abort:
		// CancelFunc is idempotent, so the early per-query cancel above and
		// this deferred sweep compose.
		defer func() {
			for _, cancel := range cancels {
				cancel()
			}
		}()
	} else {
		for i := range qctx {
			qctx[i] = ctx
		}
	}

	per := make([][]core.Match, n*p)
	errs := make([]error, n*p)
	err := pool.RunContext(ctx, s.runner, n*p, func(t int) {
		qi := t / p
		c := qctx[qi]
		if cancels != nil {
			defer func() {
				if remaining[qi].Add(-1) == 0 {
					cancels[qi]()
				}
			}()
		}
		if e := c.Err(); e != nil {
			errs[t] = e
			return
		}
		per[t], errs[t] = s.searchShard(c, t%p, qs[qi])
	})
	if err != nil {
		return nil, err
	}
	for qi := 0; qi < n; qi++ {
		var qerr error
		for si := 0; si < p; si++ {
			if e := errs[qi*p+si]; e != nil {
				qerr = e
				break
			}
		}
		if qerr != nil {
			out[qi] = QueryResult{Err: qerr}
			continue
		}
		out[qi] = QueryResult{Matches: merge(per[qi*p : (qi+1)*p])}
	}
	return out, nil
}
