// Package scan implements the paper's sequential engine: an optimized full
// scan over the data strings, with the §3 optimization ladder available as
// selectable strategies so every row of Tables III and VII can be
// regenerated.
//
// The ladder is cumulative, exactly as in the paper's Figure 3:
//
//	Base            §3.1 full DP matrix, per-comparison string copies
//	FastED          §3.2 + length filter, banded DP, main-diagonal abort
//	References      §3.3 + no per-comparison copies (reference semantics)
//	SimpleTypes     §3.4 + flat reusable row buffers, no allocation per pair
//	ParallelNaive   §3.5 + one freshly created OS thread per query
//	ParallelManaged §3.6 + fixed worker pool (N swept in Table II/VI)
//
// Additionally SortByLength enables the §6 "Sorting" future-work item: the
// data is kept sorted by length so a query with threshold k only scans the
// strings whose length lies in [len(q)-k, len(q)+k].
package scan

import (
	"context"
	"fmt"

	"simsearch/internal/edit"
	"simsearch/internal/pool"
)

// Strategy selects a rung of the paper's §3 optimization ladder.
type Strategy int

const (
	// Base is the §3.1 reference implementation: full DP matrix and
	// per-comparison string copies (the paper's C++ value semantics).
	Base Strategy = iota
	// FastED adds the §3.2 faster edit-distance calculation.
	FastED
	// References adds §3.3: strings are passed by reference, never copied.
	References
	// SimpleTypes adds §3.4: flat preallocated row buffers, zero
	// allocations per comparison.
	SimpleTypes
	// ParallelNaive adds §3.5: one freshly created OS thread per query.
	ParallelNaive
	// ParallelManaged adds §3.6: a fixed pool of Workers goroutines.
	ParallelManaged
	// BitParallel is the production rung beyond the paper's ladder: the
	// query is compiled once into a Myers bit-vector pattern (peq table
	// built per query, not per pair), the dataset is packed into a
	// length-bucketed byte arena so the length filter becomes a bucket-range
	// selection over a contiguous buffer, and with Workers > 1 a single
	// query's slot range is chunked across a pool so one query's latency
	// drops on multi-core (the paper's parallel rungs only parallelize
	// across queries). Results are byte-identical to every other rung.
	BitParallel
)

// String returns the ladder label used in the experiment tables.
func (s Strategy) String() string {
	switch s {
	case Base:
		return "base"
	case FastED:
		return "fast-ed"
	case References:
		return "references"
	case SimpleTypes:
		return "simple-types"
	case ParallelNaive:
		return "parallel-naive"
	case ParallelManaged:
		return "parallel-managed"
	case BitParallel:
		return "bit-parallel"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists the paper's §3 ladder in paper order. BitParallel is not
// part of it — it is the production rung beyond the paper, benchmarked in its
// own ablation table.
func Strategies() []Strategy {
	return []Strategy{Base, FastED, References, SimpleTypes, ParallelNaive, ParallelManaged}
}

// Match is one search result.
type Match struct {
	ID   int32
	Dist int
}

// Query pairs a query string with its edit-distance threshold.
type Query struct {
	Text string
	K    int
}

// Engine is a sequential-scan similarity searcher over a fixed dataset.
type Engine struct {
	data     []string
	strategy Strategy
	workers  int
	adaptive *pool.Adaptive
	comps    CompCounter // nil unless WithComparisonCounter

	// banded selects the modern banded kernel instead of the paper's
	// full-width §3.2 kernel for rungs FastED and above.
	banded bool

	// Length-sorted view for the §6 Sorting ablation.
	sorted  bool
	byLen   []int32 // permutation of IDs ordered by (length, ID)
	lenPref []int32 // lenPref[l] = first index in byLen with length >= l

	// Packed dataset layout for the BitParallel rung.
	arena *Arena
}

// CompCounter receives per-query comparison counts. metrics.Counter
// implements it; the interface keeps this package free of a metrics
// dependency.
type CompCounter interface {
	Add(n uint64)
}

// Option configures an Engine.
type Option func(*Engine)

// WithComparisonCounter attaches a comparison counter: after every query the
// number of per-pair kernel invocations it performed is added to c (one
// atomic add per query, nothing on the per-pair hot path). Comparisons are
// the paper's cost unit — the count shows directly how much work the length
// window and sorting optimizations save.
func WithComparisonCounter(c CompCounter) Option {
	return func(e *Engine) { e.comps = c }
}

// WithStrategy selects the optimization-ladder rung (default SimpleTypes,
// the best serial configuration).
func WithStrategy(s Strategy) Option {
	return func(e *Engine) { e.strategy = s }
}

// WithWorkers sets the pool size for ParallelManaged (default GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithAdaptive replaces the fixed pool of ParallelManaged by the §3.6
// "intelligent management" master/slave pool.
func WithAdaptive(a *pool.Adaptive) Option {
	return func(e *Engine) { e.adaptive = a }
}

// WithSortByLength enables the §6 Sorting optimization: only strings whose
// length can possibly satisfy the length filter are visited at all.
func WithSortByLength() Option {
	return func(e *Engine) { e.sorted = true }
}

// WithBandedKernel replaces the paper's §3.2 kernel (length filter +
// diagonal early abort over full-width rows) by the banded kernel that only
// computes the |i-j| <= k diagonals. The paper never bands its matrix; this
// option quantifies, in the ablation benchmarks, how much that leaves on the
// table. Applies to rungs FastED and above.
func WithBandedKernel() Option {
	return func(e *Engine) { e.banded = true }
}

// New builds an engine over data. String i has ID i. The data slice is
// retained, not copied (reference semantics; the Base/FastED rungs copy per
// comparison to model the paper's unoptimized value semantics).
func New(data []string, opts ...Option) *Engine {
	e := &Engine{data: data, strategy: SimpleTypes}
	for _, o := range opts {
		o(e)
	}
	if e.strategy == BitParallel {
		e.arena = NewArena(e.data)
	}
	if e.sorted {
		e.buildLengthIndex()
	}
	return e
}

// buildLengthIndex orders IDs by (length, ID) with a counting sort: stable by
// construction, so every equal-length segment of byLen is ID-ascending and a
// length-window scan emits one sorted run per length — which is what lets
// searchCtx merge runs instead of sorting every result set.
func (e *Engine) buildLengthIndex() {
	maxLen := 0
	for _, s := range e.data {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	counts := make([]int32, maxLen+1)
	for _, s := range e.data {
		counts[len(s)]++
	}
	e.lenPref = make([]int32, maxLen+2)
	var idx int32
	for l := 0; l <= maxLen; l++ {
		e.lenPref[l] = idx
		idx += counts[l]
	}
	e.lenPref[maxLen+1] = idx
	next := make([]int32, maxLen+1)
	copy(next, e.lenPref[:maxLen+1])
	e.byLen = make([]int32, len(e.data))
	for i, s := range e.data {
		e.byLen[next[len(s)]] = int32(i)
		next[len(s)]++
	}
}

// Len returns the dataset size.
func (e *Engine) Len() int { return len(e.data) }

// Strategy returns the configured ladder rung.
func (e *Engine) Strategy() Strategy { return e.strategy }

// Search returns all strings within edit distance q.K of q.Text, ordered by
// ID. The scan itself is single-threaded; parallel strategies parallelize
// across queries in SearchBatch, matching the paper's design.
func (e *Engine) Search(q Query) []Match {
	var scratch edit.Scratch
	return e.searchWith(q, &scratch)
}

func (e *Engine) searchWith(q Query, scratch *edit.Scratch) []Match {
	ms, _ := e.searchCtx(nil, q, scratch)
	return ms
}

// ctxStride is how many per-pair comparisons run between two context checks.
// One comparison on the paper's workloads is sub-microsecond, so a stride of
// 1024 bounds the cancellation latency well below a millisecond while keeping
// the check off the per-pair hot path.
const ctxStride = 1024

// searchCtx is the scan loop shared by Search and SearchContext. A nil (or
// non-cancellable) ctx compiles down to the uninterrupted scan.
func (e *Engine) searchCtx(ctx context.Context, q Query, scratch *edit.Scratch) ([]Match, error) {
	if q.K < 0 {
		return nil, nil
	}
	if e.strategy == BitParallel {
		return e.searchBitParallel(ctx, q)
	}
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	var out []Match
	emit := func(id int32, d int) { out = append(out, Match{ID: id, Dist: d}) }

	// pairs counts kernel invocations locally; the single atomic add per
	// query happens at return (including the cancellation returns, so a
	// partial scan's work is still accounted for).
	var pairs uint64
	if e.comps != nil {
		defer func() { e.comps.Add(pairs) }()
	}

	kernel := e.kernel(scratch)
	seen := 0
	check := func() bool {
		if cancel == nil {
			return false
		}
		seen++
		if seen%ctxStride != 0 {
			return false
		}
		select {
		case <-cancel:
			return true
		default:
			return false
		}
	}
	if e.sorted {
		lo, hi := len(q.Text)-q.K, len(q.Text)+q.K
		if lo < 0 {
			lo = 0
		}
		if hi > len(e.lenPref)-2 {
			hi = len(e.lenPref) - 2
		}
		if lo <= hi {
			start, end := e.lenPref[lo], e.lenPref[hi+1]
			for _, id := range e.byLen[start:end] {
				if check() {
					return nil, ctx.Err()
				}
				pairs++
				if d, ok := kernel(q.Text, e.data[id], q.K); ok {
					emit(id, d)
				}
			}
		}
		// byLen is ordered (length, ID), so out is a concatenation of
		// ID-ascending runs (one per length) — merge them instead of
		// re-sorting with a fresh closure on every query.
		return mergeRuns(out), nil
	}
	for i, s := range e.data {
		if check() {
			return nil, ctx.Err()
		}
		pairs++
		if d, ok := kernel(q.Text, s, q.K); ok {
			emit(int32(i), d)
		}
	}
	return out, nil
}

// SearchContext is Search with cooperative cancellation: the scan checks ctx
// every ctxStride comparisons and abandons the query with ctx.Err() once the
// context is done. A completed call returns exactly what Search returns.
func (e *Engine) SearchContext(ctx context.Context, q Query) ([]Match, error) {
	var scratch edit.Scratch
	return e.searchCtx(ctx, q, &scratch)
}

// kernel returns the per-pair comparison function for the configured rung.
func (e *Engine) kernel(scratch *edit.Scratch) func(q, x string, k int) (int, bool) {
	switch e.strategy {
	case Base:
		return func(q, x string, k int) (int, bool) {
			// §3.1: value semantics — both operands are deep-copied for
			// every single comparison, and the full matrix is computed
			// with no filters, exactly like the paper's first C++ cut.
			qc := string(append([]byte(nil), q...))
			xc := string(append([]byte(nil), x...))
			d := edit.DistanceFullMatrix(qc, xc)
			return d, d <= k
		}
	case FastED:
		if e.banded {
			return func(q, x string, k int) (int, bool) {
				qc := string(append([]byte(nil), q...))
				xc := string(append([]byte(nil), x...))
				return edit.BoundedDistance(qc, xc, k)
			}
		}
		return func(q, x string, k int) (int, bool) {
			// §3.2: length filter + diagonal abort, still copying operands.
			qc := string(append([]byte(nil), q...))
			xc := string(append([]byte(nil), x...))
			return edit.PaperBoundedDistance(qc, xc, k)
		}
	case References:
		if e.banded {
			return func(q, x string, k int) (int, bool) {
				return edit.BoundedDistance(q, x, k)
			}
		}
		return func(q, x string, k int) (int, bool) {
			// §3.3: no copies; rows still allocated per comparison.
			return edit.PaperBoundedDistance(q, x, k)
		}
	default:
		// SimpleTypes and both parallel rungs: §3.4 zero-allocation kernel.
		if e.banded {
			return func(q, x string, k int) (int, bool) {
				return scratch.BoundedDistance(q, x, k)
			}
		}
		return func(q, x string, k int) (int, bool) {
			return scratch.PaperBoundedDistance(q, x, k)
		}
	}
}

// runner returns the across-queries scheduler for the configured rung.
func (e *Engine) runner() pool.Runner {
	switch e.strategy {
	case ParallelNaive:
		return pool.PerTask{}
	case ParallelManaged:
		if e.adaptive != nil {
			return e.adaptive
		}
		return pool.Fixed{Workers: e.workers}
	default:
		return pool.Serial{}
	}
}

// SearchBatch answers every query and returns the per-query results in
// input order. Serial rungs answer queries one after another; parallel rungs
// distribute queries over the configured pool.
func (e *Engine) SearchBatch(qs []Query) [][]Match {
	results := make([][]Match, len(qs))
	r := e.runner()
	if _, serial := r.(pool.Serial); serial {
		var scratch edit.Scratch
		for i, q := range qs {
			results[i] = e.searchWith(q, &scratch)
		}
		return results
	}
	r.Run(len(qs), func(i int) {
		var scratch edit.Scratch
		results[i] = e.searchWith(qs[i], &scratch)
	})
	return results
}
