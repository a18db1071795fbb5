// Package scan implements the paper's sequential engine: an optimized full
// scan over the data strings, with the §3 optimization ladder available as
// selectable strategies so every row of Tables III and VII can be
// regenerated.
//
// The ladder is cumulative, exactly as in the paper's Figure 3:
//
//	Base            §3.1 full DP matrix, per-comparison string copies
//	FastED          §3.2 + length filter, main-diagonal abort (no band)
//	References      §3.3 + no per-comparison copies (reference semantics)
//	SimpleTypes     §3.4 + flat reusable row buffers, no allocation per pair
//	ParallelNaive   §3.5 + one freshly created OS thread per query
//	ParallelManaged §3.6 + fixed worker pool (N swept in Table II/VI)
//
// Beside the ladder the package holds the packed, length-bucketed arena
// (arena.go), the signature words and their sweep (words.go) and the
// strings that sit in no arena (loose.go): no rung runs them; the cascade
// engine (core.Cascade) and the live store's segments and delta
// (internal/lsm) do.
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
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Match is one search result: a dataset string's ID (its index in the
// dataset) and its exact edit distance to the query. It is the result type
// of every engine in the module, and every engine returns a query's matches
// in ascending ID order; a query with no match may return nil.
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
	comps    compCounter // nil unless withComparisonCounter
}

// compCounter receives per-query comparison counts. metrics.Counter
// implements it; the interface keeps this package free of a metrics
// dependency.
type compCounter interface {
	Add(n uint64)
}

// Option configures an Engine.
type Option func(*Engine)

// withComparisonCounter attaches a comparison counter: after every query the
// number of per-pair kernel invocations it performed is added to c (one
// atomic add per query, nothing on the per-pair hot path). Comparisons are
// the paper's cost unit. Only this package's tests count them so far; a
// paper table that reports comparisons exports it again.
func withComparisonCounter(c compCounter) Option {
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

// New builds an engine over data. String i has ID i. The data slice is
// retained, not copied (reference semantics; the Base/FastED rungs copy per
// comparison to model the paper's unoptimized value semantics).
func New(data []string, opts ...Option) *Engine {
	e := &Engine{data: data, strategy: SimpleTypes}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Len returns the dataset size.
func (e *Engine) Len() int { return len(e.data) }

// Strategy returns the configured ladder rung.
func (e *Engine) Strategy() Strategy { return e.strategy }

// Workers returns the configured pool size (0 means unset).
func (e *Engine) Workers() int { return e.workers }

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
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	var out []Match

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
	for i, s := range e.data {
		if check() {
			return nil, ctx.Err()
		}
		pairs++
		if d, ok := kernel(q.Text, s, q.K); ok {
			out = append(out, Match{ID: int32(i), Dist: d})
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
		return func(q, x string, k int) (int, bool) {
			// §3.2: length filter + diagonal abort, still copying operands.
			qc := string(append([]byte(nil), q...))
			xc := string(append([]byte(nil), x...))
			return edit.PaperBoundedDistance(qc, xc, k)
		}
	case References:
		// §3.3: no copies; rows still allocated per comparison.
		return edit.PaperBoundedDistance
	default:
		// SimpleTypes and both parallel rungs: §3.4 zero-allocation kernel.
		return scratch.PaperBoundedDistance
	}
}

// runner returns the across-queries scheduler for the configured rung.
func (e *Engine) runner() pool.Runner {
	switch e.strategy {
	case ParallelNaive:
		return pool.PerTask{}
	case ParallelManaged:
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
