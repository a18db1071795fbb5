// Package exec is the serving-path executor: one engine per shard (any
// core.Searcher — scan, trie, cascade, or a live lsm.Store), with batches of
// queries fanned across a pool.Runner so the shard×query task grid saturates
// the machine. It extends the paper's §3.5–3.6 parallelism ladder, which
// stops at "one fixed pool per query batch", with the partition-then-merge
// layer a production service needs: sharding, batching, context
// cancellation, and per-query deadlines.
//
// There is one executor, Sharded. New builds it over P contiguous slices of
// a frozen dataset; NewLive builds it over P mutable stores and keeps, in
// front of it, only what the stores share: write routing, the id allocator
// and the generation a result cache keys on (live.go).
//
// A single query is different: the paper's ladder step 5, one thread per
// query, cost more than the scan it parallelised, and a shard's share of a
// query is a few microseconds — less than handing it to another goroutine.
// So a single query runs its shards one after another on the caller's
// goroutine.
//
// Determinism guarantee: every engine returns matches sorted by global ID,
// so a query's per-shard results are at most P ascending runs, and merging
// them reproduces exactly the ID-sorted result set the single-engine path
// emits — for every shard count, every factory, and every runner. On the
// frozen executor's contiguous ranges the runs arrive in order and the merge
// is a concatenation. Scheduling only changes when a slot is filled, never
// what ends up in it.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/metrics"
	"simsearch/internal/pool"
	"simsearch/internal/scan"
)

// Factory builds one shard engine over that shard's slice of the dataset.
// Match IDs local to the slice are remapped to global IDs by the executor.
type Factory func(data []string) core.Searcher

// defaultFactory builds the paper's best serial scan (the §3.4 rung), the
// engine the paper found fastest on short natural-language strings.
func defaultFactory(data []string) core.Searcher {
	return core.NewSequential(data)
}

// Options configures New. The zero value gives one shard per CPU, the default
// scan factory, and a fixed pool of GOMAXPROCS workers.
type Options struct {
	// Shards is the partition count P (default GOMAXPROCS, clamped to the
	// dataset size so no shard is empty).
	Shards int
	// Factory builds each shard's engine (default defaultFactory).
	Factory Factory
	// Runner schedules a batch's shard×query task grid (default
	// pool.Fixed{Workers: GOMAXPROCS}). Any of the paper's strategies
	// works.
	Runner pool.Runner
}

// shard is one partition: an engine plus the offset that turns its local
// IDs into global ones (0 for a live store, whose IDs are global already).
type shard struct {
	eng  core.Searcher
	base int32
}

// Sharded is the partition-then-merge executor. It implements core.Searcher
// and core.ContextSearcher, and core.SearchBatch hands it whole batches, so
// it drops in anywhere a single engine does while answering batches
// shard-parallel.
type Sharded struct {
	shards   []shard
	runner   pool.Runner
	counters []*metrics.ShardCounter
	slow     *metrics.SlowLog
	name     string
}

// New partitions data into opts.Shards contiguous shards and builds one
// engine per shard; string i keeps global ID i.
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
		factory = defaultFactory
	}
	shards := make([]shard, p)
	n := len(data)
	for i := range shards {
		lo, hi := i*n/p, (i+1)*n/p
		shards[i] = shard{eng: factory(data[lo:hi]), base: int32(lo)}
	}
	return newSharded(fmt.Sprintf("sharded-%d/%s", p, shards[0].eng.Name()), shards, opts.Runner)
}

// newSharded builds the executor over ready shards. A nil runner is
// pool.Fixed over GOMAXPROCS workers.
func newSharded(name string, shards []shard, runner pool.Runner) *Sharded {
	if runner == nil {
		runner = pool.Fixed{Workers: runtime.GOMAXPROCS(0)}
	}
	s := &Sharded{
		shards:   shards,
		runner:   runner,
		counters: make([]*metrics.ShardCounter, len(shards)),
		name:     name,
	}
	for i := range s.counters {
		s.counters[i] = metrics.NewShardCounter()
	}
	return s
}

// Name implements core.Searcher.
func (s *Sharded) Name() string { return s.name }

// Len implements core.Searcher: the strings the shards hold.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.eng.Len()
	}
	return n
}

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

// ShardEngines returns each shard's engine in shard order (callers that
// prime or inspect the shards; they must not mutate engine state).
func (s *Sharded) ShardEngines() []core.Searcher {
	out := make([]core.Searcher, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.eng
	}
	return out
}

// Describe reports the /stats "shards" section: per shard, in shard order,
// its size and serving counters (P50/P99 bucket-interpolated from its
// latency histogram) and, under the engine's own section name, whatever the
// shard engine describes of itself.
func (s *Sharded) Describe() (string, any) {
	out := make([]map[string]any, len(s.shards))
	for i, sh := range s.shards {
		snap := s.counters[i].Snapshot()
		out[i] = map[string]any{
			"strings":        sh.eng.Len(),
			"queries":        snap.Queries,
			"matches":        snap.Matches,
			"busy_us":        snap.Busy.Microseconds(),
			"mean_us":        snap.MeanLatency().Microseconds(),
			"p50_us":         snap.Latency.Quantile(0.50).Microseconds(),
			"p99_us":         snap.Latency.Quantile(0.99).Microseconds(),
			"throughput_qps": snap.Throughput(),
		}
		if d, ok := sh.eng.(interface{ Describe() (string, any) }); ok {
			name, st := d.Describe()
			out[i][name] = st
		}
	}
	return "shards", out
}

// SetSlowLog installs (or, with nil, removes) the shard-level slow-query
// log. Call before serving traffic; the field is read without
// synchronization on the hot path.
func (s *Sharded) SetSlowLog(l *metrics.SlowLog) { s.slow = l }

// RegisterMetrics exposes every shard's serving counters and latency
// histogram on reg under simsearch_shard_* names with a shard label, and
// registers each shard engine's own metrics (the cascade's
// simsearch_cascade_*) through a view of reg that adds the same label. The
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
		eng := s.shards[i].eng
		reg.GaugeFunc("simsearch_shard_strings",
			"Strings held, by shard.",
			func() float64 { return float64(eng.Len()) }, lbl)
		if rm, ok := s.shards[i].eng.(interface{ RegisterMetrics(*metrics.Registry) }); ok {
			rm.RegisterMetrics(reg.With(lbl))
		}
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
	if sh.base != 0 {
		for j := range ms {
			ms[j].ID += sh.base
		}
	}
	took := time.Since(start)
	s.counters[i].Observe(len(ms), took)
	s.slow.Observe("", sh.eng.Name(), i, q.Text, q.K, took)
	return ms, nil
}

// merge concatenates per-shard results in shard order and puts the
// concatenation in ID order. Each shard's list is ID-ascending, so it is at
// most P runs: on the frozen executor's contiguous ranges one, and only the
// run count is paid; on the live executor's interleaved IDs up to P, merged.
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
	return scan.MergeRuns(out)
}

// Search implements core.Searcher: one query over every shard, in shard
// order on the caller's goroutine.
func (s *Sharded) Search(q core.Query) []core.Match {
	ms, _ := s.SearchContext(nil, q)
	return ms
}

// SearchContext implements core.ContextSearcher. It returns ctx.Err() once
// ctx is done: ctx is checked before each shard, so unstarted shards are
// skipped, and context-aware shard engines abandon their in-flight work. A
// plain engine cannot stop mid-query. As the only shard it runs on
// core.SearchContext's helper goroutine and the call returns at once; among
// several shards it runs on the caller, which finishes that one share
// before it sees the cancel — a helper goroutine per share would be the
// hand-off running inline exists to skip.
func (s *Sharded) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // nothing can cancel it: the uninterruptible fast path
	}
	p := len(s.shards)
	per := make([][]core.Match, p)
	for i, sh := range s.shards {
		c := ctx
		if c != nil {
			if err := c.Err(); err != nil {
				return nil, err
			}
			if _, aware := sh.eng.(core.ContextSearcher); !aware && p > 1 {
				c = nil
			}
		}
		ms, err := s.searchShard(c, i, q)
		if err != nil {
			return nil, err
		}
		per[i] = ms
	}
	return merge(per), nil
}

// SearchBatch answers a batch, as core.SearchBatch asks: SearchBatchContext
// with nothing to cancel, so the same len(qs)×P task grid.
func (s *Sharded) SearchBatch(qs []core.Query) [][]core.Match {
	res, _ := s.SearchBatchContext(context.Background(), qs)
	out := make([][]core.Match, len(qs))
	for i, r := range res {
		out[i] = r.Matches
	}
	return out
}

// QueryResult is one query's outcome in a context batch: either its complete
// match set or the context error (Canceled or DeadlineExceeded) that ended it.
type QueryResult = core.QueryResult

// SearchBatchContext answers the batch under ctx. Cancelling ctx abandons the
// whole batch and returns ctx.Err(); a per-query budget on ctx
// (core.WithQueryTimeout) instead expires individual queries, measured from
// batch submission (a client-style deadline, not an execution budget); they
// report DeadlineExceeded in their QueryResult while the rest of the batch
// completes. Results are in input order.
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
	if budget := core.QueryTimeout(ctx); budget > 0 {
		remaining = make([]atomic.Int32, n)
		cancels = make([]context.CancelFunc, n)
		for i := range qctx {
			c, cancel := context.WithTimeout(ctx, budget)
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
