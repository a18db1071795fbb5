// Package core defines the reproduction's engine-independent API: queries,
// matches, the Searcher interface every engine implements, batch execution
// over a parallelism strategy, and the paper's §3.1 correctness protocol
// (every optimized engine is verified against the base implementation).
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"simsearch/internal/edit"
	"simsearch/internal/pool"
	"simsearch/internal/scan"
	"simsearch/internal/trie"
)

// Query is one string-similarity-search request: find every data string x
// with ed(Text, x) <= K (paper eq. 1).
type Query = scan.Query

// Match is one result: the data string's ID (its index in the dataset) and
// its exact edit distance to the query. It is scan.Match, whose doc carries
// the result-order contract every engine keeps.
type Match = scan.Match

// Searcher answers string similarity queries over a fixed dataset. All
// implementations return matches sorted by ID, in a slice the caller owns,
// and all are safe for concurrent Search calls after construction.
type Searcher interface {
	// Search returns every dataset string within Q.K edits of Q.Text.
	Search(q Query) []Match
	// Name identifies the engine in reports.
	Name() string
	// Len returns the dataset size.
	Len() int
}

// ContextSearcher is implemented by engines that can abandon an in-flight
// query when its context is cancelled. SearchContext must return promptly
// after cancellation with ctx.Err() and a nil match slice; a nil error means
// the result is complete and identical to what Search would have returned.
type ContextSearcher interface {
	Searcher
	SearchContext(ctx context.Context, q Query) ([]Match, error)
}

// SearchContext answers q with s under ctx. Context-aware engines are driven
// through their own SearchContext; for plain engines the query runs on a
// helper goroutine and SearchContext returns ctx.Err() on cancellation
// without waiting for it (the abandoned goroutine finishes the scan and is
// then collected — plain engines have no way to abort mid-query).
func SearchContext(ctx context.Context, s Searcher, q Query) ([]Match, error) {
	if cs, ok := s.(ContextSearcher); ok {
		return cs.SearchContext(ctx, q)
	}
	if ctx == nil || ctx.Done() == nil {
		return s.Search(q), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return interruptible(ctx, func() []Match { return s.Search(q) })
}

// Hamming returns every dataset string of exactly len(q) bytes with at most k
// mismatching positions, sorted by ID, with Dist the Hamming distance. It is
// an edit search at threshold k filtered by str, which resolves a match ID to
// its string: k substitutions are k edits, so the edit result holds every
// Hamming match, and any engine that answers Search answers Hamming.
func Hamming(ctx context.Context, s Searcher, str func(int32) string, q string, k int) ([]Match, error) {
	ms, err := SearchContext(ctx, s, Query{Text: q, K: k})
	if err != nil {
		return nil, err
	}
	out := ms[:0]
	for _, m := range ms {
		if d := edit.HammingDistance(q, str(m.ID)); d >= 0 && d <= k {
			out = append(out, Match{ID: m.ID, Dist: d})
		}
	}
	return out, nil
}

// interruptible runs fn on a helper goroutine and returns its result, or
// ctx.Err() as soon as ctx is done — without waiting for fn. The abandoned
// goroutine finishes its work and is then collected; this is the only
// context strategy available for engines with no internal preemption points.
func interruptible(ctx context.Context, fn func() []Match) ([]Match, error) {
	ch := make(chan []Match, 1)
	go func() { ch <- fn() }()
	select {
	case ms := <-ch:
		return ms, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// sortMatches orders by ID, the canonical result order.
func sortMatches(ms []Match) []Match {
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return ms
}

// --- Sequential engine -----------------------------------------------------

// Sequential wraps the scan engine (the paper's §3 contribution).
type Sequential struct {
	eng  *scan.Engine
	name string
}

// NewSequential builds a sequential-scan searcher over data with the given
// scan options (strategy, workers, sorting).
func NewSequential(data []string, opts ...scan.Option) *Sequential {
	e := scan.New(data, opts...)
	return &Sequential{eng: e, name: "scan/" + e.Strategy().String()}
}

// Search implements Searcher.
func (s *Sequential) Search(q Query) []Match { return s.eng.Search(q) }

// SearchBatch answers all queries using the engine's own across-queries
// scheduler (serial for ladder rungs 1–4, parallel for rungs 5–6).
func (s *Sequential) SearchBatch(qs []Query) [][]Match { return s.eng.SearchBatch(qs) }

// SearchContext implements ContextSearcher: the scan checks ctx periodically
// and abandons the query promptly after cancellation.
func (s *Sequential) SearchContext(ctx context.Context, q Query) ([]Match, error) {
	return s.eng.SearchContext(ctx, q)
}

// Name implements Searcher.
func (s *Sequential) Name() string { return s.name }

// Len implements Searcher.
func (s *Sequential) Len() int { return s.eng.Len() }

// Describe reports the scan's ladder rung and pool size as the /stats
// "scan" section.
func (s *Sequential) Describe() (string, any) {
	return "scan", struct {
		Strategy string `json:"strategy"`
		Workers  int    `json:"workers,omitempty"`
	}{s.eng.Strategy().String(), s.eng.Workers()}
}

// --- Trie engine ------------------------------------------------------------

// Trie wraps the prefix-tree engine (the paper's §4 index).
type Trie struct {
	tree *trie.Tree
	name string
}

// NewTrie builds a prefix-tree searcher. compress selects the §4.2
// path-compressed variant. Either tree is built straight into its packed
// slabs, so the two compare on compression alone.
func NewTrie(data []string, compress bool, opts ...trie.Option) *Trie {
	tr := trie.Build(data, compress, opts...)
	name := "trie/plain"
	if compress {
		name = "trie/compressed"
	}
	if tr.Modern() {
		name += "+modern"
	}
	return &Trie{tree: tr, name: name}
}

// Search implements Searcher.
func (t *Trie) Search(q Query) []Match { return sortMatches(t.tree.Search(q.Text, q.K)) }

// Name implements Searcher.
func (t *Trie) Name() string { return t.name }

// Len implements Searcher.
func (t *Trie) Len() int { return t.tree.Len() }

// --- Batch execution ----------------------------------------------------------

// batcher is implemented by engines with their own batch scheduler.
type batcher interface {
	SearchBatch(qs []Query) [][]Match
}

// QueryResult is one query's outcome in a context batch: either its complete
// match set or the error (context.Canceled, context.DeadlineExceeded, …) that
// ended it.
type QueryResult struct {
	Matches []Match
	Err     error
}

// contextBatcher is implemented by engines that answer whole batches under a
// context with per-query outcomes: the sharded executor (shard-parallel, with
// per-query deadlines) and the result cache (hits answered locally, misses
// forwarded as one sub-batch). Cancelling ctx abandons the batch and returns
// ctx.Err(); per-query failures are reported in the QueryResult instead.
type contextBatcher interface {
	SearchBatchContext(ctx context.Context, qs []Query) ([]QueryResult, error)
}

// queryTimeoutKey carries WithQueryTimeout's budget on a context.
type queryTimeoutKey struct{}

// WithQueryTimeout returns ctx carrying a per-query budget d for a batch:
// each query gets its own deadline d, so one slow query reports its own
// error instead of starving the rest of the batch. SearchBatchContext's
// serial loop starts a query's deadline when the query starts; the sharded
// executor, whose scheduler interleaves the queries, starts them all at
// batch submission. The budget rides the context through the layers above
// (the result cache forwards its misses under the same context).
func WithQueryTimeout(ctx context.Context, d time.Duration) context.Context {
	return context.WithValue(ctx, queryTimeoutKey{}, d)
}

// QueryTimeout returns the per-query budget WithQueryTimeout put on ctx, or
// zero.
func QueryTimeout(ctx context.Context) time.Duration {
	d, _ := ctx.Value(queryTimeoutKey{}).(time.Duration)
	return d
}

// SearchBatchContext answers qs with s under ctx. An engine with its own
// context batch scheduler runs it; any other engine answers the queries one
// after another, each under WithQueryTimeout's budget when ctx carries one.
// Either way a failing query reports its error in its QueryResult and the
// rest of the batch completes; only ctx itself going dead (deadline or
// cancellation) abandons the batch and returns ctx.Err().
func SearchBatchContext(ctx context.Context, s Searcher, qs []Query) ([]QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cb, ok := s.(contextBatcher); ok {
		return cb.SearchBatchContext(ctx, qs)
	}
	budget := QueryTimeout(ctx)
	out := make([]QueryResult, len(qs))
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		qctx, cancel := ctx, func() {}
		if budget > 0 {
			qctx, cancel = context.WithTimeout(ctx, budget)
		}
		ms, err := SearchContext(qctx, s, q)
		cancel()
		if err != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		out[i] = QueryResult{Matches: ms, Err: err}
	}
	return out, nil
}

// SearchBatch answers every query with s. If runner is nil, the engine's own
// batch scheduler is used when available, otherwise queries run serially.
// A non-nil runner overrides the schedule (used for the Tables IV/VIII
// thread sweeps over the trie engine).
func SearchBatch(s Searcher, qs []Query, runner pool.Runner) [][]Match {
	if runner == nil {
		if b, ok := s.(batcher); ok {
			return b.SearchBatch(qs)
		}
		runner = pool.Serial{}
	}
	out := make([][]Match, len(qs))
	runner.Run(len(qs), func(i int) {
		out[i] = s.Search(qs[i])
	})
	return out
}

// --- Verification (paper §3.1) -------------------------------------------------

// Reference returns the paper's base implementation: the unoptimized
// sequential scan whose results define correctness.
func Reference(data []string) Searcher {
	return NewSequential(data, scan.WithStrategy(scan.Base))
}

// verifyError reports the first divergence found by Verify.
type verifyError struct {
	Engine string
	Query  Query
	Got    []Match
	Want   []Match
}

// Error implements error.
func (e *verifyError) Error() string {
	return fmt.Sprintf("engine %s diverges from reference on query %+v: got %v, want %v",
		e.Engine, e.Query, e.Got, e.Want)
}

// Verify checks s against ref on every query, implementing the paper's
// "results of the first solution will be used for the comparison in the
// other approaches" protocol. It returns nil iff all result sets match.
func Verify(s, ref Searcher, qs []Query) error {
	for _, q := range qs {
		got := s.Search(q)
		want := ref.Search(q)
		if !slices.Equal(got, want) {
			return &verifyError{Engine: s.Name(), Query: q, Got: got, Want: want}
		}
	}
	return nil
}
