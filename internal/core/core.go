// Package core defines the reproduction's engine-independent API: queries,
// matches, the Searcher interface every engine implements, batch execution
// over a parallelism strategy, and the paper's §3.1 correctness protocol
// (every optimized engine is verified against the base implementation).
package core

import (
	"context"
	"fmt"
	"io"
	"sort"

	"simsearch/internal/bktree"
	"simsearch/internal/ngram"
	"simsearch/internal/pool"
	"simsearch/internal/scan"
	"simsearch/internal/suffix"
	"simsearch/internal/trie"
	"simsearch/internal/vptree"
)

// Query is one string-similarity-search request: find every data string x
// with ed(Text, x) <= K (paper eq. 1).
type Query struct {
	Text string
	K    int
}

// Match is one result: the data string's ID (its index in the dataset) and
// its exact edit distance to the query.
type Match struct {
	ID   int32
	Dist int
}

// Searcher answers string similarity queries over a fixed dataset. All
// implementations return matches sorted by ID, and all are safe for
// concurrent Search calls after construction.
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
func (s *Sequential) Search(q Query) []Match {
	return convertScan(s.eng.Search(scan.Query{Text: q.Text, K: q.K}))
}

// SearchBatch answers all queries using the engine's own across-queries
// scheduler (serial for ladder rungs 1–4, parallel for rungs 5–6).
func (s *Sequential) SearchBatch(qs []Query) [][]Match {
	sq := make([]scan.Query, len(qs))
	for i, q := range qs {
		sq[i] = scan.Query{Text: q.Text, K: q.K}
	}
	raw := s.eng.SearchBatch(sq)
	out := make([][]Match, len(raw))
	for i, ms := range raw {
		out[i] = convertScan(ms)
	}
	return out
}

// SearchContext implements ContextSearcher: the scan checks ctx periodically
// and abandons the query promptly after cancellation.
func (s *Sequential) SearchContext(ctx context.Context, q Query) ([]Match, error) {
	ms, err := s.eng.SearchContext(ctx, scan.Query{Text: q.Text, K: q.K})
	if err != nil {
		return nil, err
	}
	return convertScan(ms), nil
}

// Name implements Searcher.
func (s *Sequential) Name() string { return s.name }

// Len implements Searcher.
func (s *Sequential) Len() int { return s.eng.Len() }

// ScanEngine exposes the underlying scan engine for observability surfaces
// (ladder rung, pool size, BitParallel arena layout).
func (s *Sequential) ScanEngine() *scan.Engine { return s.eng }

func convertScan(ms []scan.Match) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ID: m.ID, Dist: m.Dist}
	}
	return out // scan already emits in ID order
}

// --- Trie engine ------------------------------------------------------------

// Trie wraps the prefix-tree engine (the paper's §4 index).
type Trie struct {
	tree *trie.Tree
	name string
}

// NewTrie builds a prefix-tree searcher. compress selects the §4.2
// path-compressed variant.
func NewTrie(data []string, compress bool, opts ...trie.Option) *Trie {
	tr := trie.Build(data, opts...)
	name := "trie/plain"
	if compress {
		tr.Compress()
		name = "trie/compressed"
	}
	if tr.Modern() {
		name += "+modern"
	}
	return &Trie{tree: tr, name: name}
}

// Search implements Searcher.
func (t *Trie) Search(q Query) []Match {
	ms := t.tree.Search(q.Text, q.K)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ID: m.ID, Dist: m.Dist}
	}
	return sortMatches(out)
}

// Name implements Searcher.
func (t *Trie) Name() string { return t.name }

// Len implements Searcher.
func (t *Trie) Len() int { return t.tree.Len() }

// Tree exposes the underlying trie for structural reports (node counts).
func (t *Trie) Tree() *trie.Tree { return t.tree }

// SearchHamming answers a Hamming-distance query over the same tree: all
// stored strings of exactly len(text) bytes with at most k mismatches.
func (t *Trie) SearchHamming(text string, k int) []Match {
	ms := t.tree.SearchHamming(text, k)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ID: m.ID, Dist: m.Dist}
	}
	return sortMatches(out)
}

// SearchHammingContext is SearchHamming under a context: cancellation or
// deadline expiry returns ctx.Err() promptly while the abandoned traversal
// finishes on a helper goroutine (the trie walk has no preemption points).
func (t *Trie) SearchHammingContext(ctx context.Context, text string, k int) ([]Match, error) {
	if ctx == nil || ctx.Done() == nil {
		return t.SearchHamming(text, k), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return interruptible(ctx, func() []Match { return t.SearchHamming(text, k) })
}

// WriteTo serializes the built index (see trie.Tree.WriteTo).
func (t *Trie) WriteTo(w io.Writer) (int64, error) { return t.tree.WriteTo(w) }

// ReadTrie deserializes an index written with Trie.WriteTo.
func ReadTrie(r io.Reader) (*Trie, error) {
	tree, err := trie.Read(r)
	if err != nil {
		return nil, err
	}
	name := "trie/plain"
	if tree.Compressed() {
		name = "trie/compressed"
	}
	if tree.Modern() {
		name += "+modern"
	}
	return &Trie{tree: tree, name: name}, nil
}

// --- Baseline engines --------------------------------------------------------

// BKTree wraps the metric-tree baseline.
type BKTree struct{ tree *bktree.Tree }

// NewBKTree builds a BK-tree searcher over data.
func NewBKTree(data []string) *BKTree {
	return &BKTree{tree: bktree.Build(data)}
}

// Search implements Searcher.
func (b *BKTree) Search(q Query) []Match {
	ms := b.tree.Search(q.Text, q.K)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ID: m.ID, Dist: m.Dist}
	}
	return sortMatches(out)
}

// Name implements Searcher.
func (b *BKTree) Name() string { return "bktree" }

// Len implements Searcher.
func (b *BKTree) Len() int { return b.tree.Len() }

// QGram wraps the q-gram inverted-index baseline.
type QGram struct {
	idx *ngram.Index
}

// NewQGram builds a q-gram searcher with gram size q.
func NewQGram(q int, data []string) *QGram {
	return &QGram{idx: ngram.New(q, data)}
}

// Search implements Searcher.
func (g *QGram) Search(q Query) []Match {
	ms := g.idx.Search(q.Text, q.K)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ID: m.ID, Dist: m.Dist}
	}
	return out
}

// Name implements Searcher.
func (g *QGram) Name() string { return fmt.Sprintf("qgram-%d", g.idx.Q()) }

// Len implements Searcher.
func (g *QGram) Len() int { return g.idx.Len() }

// SuffixArray wraps the Navarro-style suffix-array partitioning baseline.
type SuffixArray struct{ idx *suffix.Index }

// NewSuffixArray builds the suffix-array searcher.
func NewSuffixArray(data []string) *SuffixArray {
	return &SuffixArray{idx: suffix.New(data)}
}

// Search implements Searcher.
func (s *SuffixArray) Search(q Query) []Match {
	ms := s.idx.Search(q.Text, q.K)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ID: m.ID, Dist: m.Dist}
	}
	return out
}

// Name implements Searcher.
func (s *SuffixArray) Name() string { return "suffixarray" }

// Len implements Searcher.
func (s *SuffixArray) Len() int { return s.idx.Len() }

// --- VP-tree baseline ----------------------------------------------------------

// VPTree wraps the vantage-point-tree baseline.
type VPTree struct{ tree *vptree.Tree }

// NewVPTree builds a vantage-point tree over data (deterministic layout).
func NewVPTree(data []string) *VPTree {
	return &VPTree{tree: vptree.Build(data, 1)}
}

// Search implements Searcher.
func (v *VPTree) Search(q Query) []Match {
	ms := v.tree.Search(q.Text, q.K)
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ID: m.ID, Dist: m.Dist}
	}
	return out
}

// Name implements Searcher.
func (v *VPTree) Name() string { return "vptree" }

// Len implements Searcher.
func (v *VPTree) Len() int { return v.tree.Len() }

// --- Batch execution ----------------------------------------------------------

// Batcher is implemented by engines with their own batch scheduler.
type Batcher interface {
	SearchBatch(qs []Query) [][]Match
}

// QueryResult is one query's outcome in a context batch: either its complete
// match set or the error (context.Canceled, context.DeadlineExceeded, …) that
// ended it.
type QueryResult struct {
	Matches []Match
	Err     error
}

// ContextBatcher is implemented by engines that answer whole batches under a
// context with per-query outcomes: the sharded executor (shard-parallel, with
// per-query deadlines) and the result cache (hits answered locally, misses
// forwarded as one sub-batch). Cancelling ctx abandons the batch and returns
// ctx.Err(); per-query failures are reported in the QueryResult instead.
type ContextBatcher interface {
	Searcher
	SearchBatchContext(ctx context.Context, qs []Query) ([]QueryResult, error)
}

// SearchBatch answers every query with s. If runner is nil, the engine's own
// batch scheduler is used when available, otherwise queries run serially.
// A non-nil runner overrides the schedule (used for the Tables IV/VIII
// thread sweeps over the trie engine).
func SearchBatch(s Searcher, qs []Query, runner pool.Runner) [][]Match {
	if runner == nil {
		if b, ok := s.(Batcher); ok {
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

// VerifyError reports the first divergence found by Verify.
type VerifyError struct {
	Engine string
	Query  Query
	Got    []Match
	Want   []Match
}

// Error implements error.
func (e *VerifyError) Error() string {
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
		if !Equal(got, want) {
			return &VerifyError{Engine: s.Name(), Query: q, Got: got, Want: want}
		}
	}
	return nil
}

// Equal reports whether two ID-sorted result sets are identical.
func Equal(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
