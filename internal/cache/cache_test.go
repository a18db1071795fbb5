package cache

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/exec"
)

// countingSearcher counts engine searches, so tests can prove a hit (or a
// coalesced join) never reached the engine.
type countingSearcher struct {
	inner core.Searcher
	calls atomic.Int64
}

func (c *countingSearcher) Search(q core.Query) []core.Match {
	c.calls.Add(1)
	return c.inner.Search(q)
}
func (c *countingSearcher) Name() string { return "counting/" + c.inner.Name() }
func (c *countingSearcher) Len() int     { return c.inner.Len() }

// gateSearcher blocks every search until the gate is opened (or the context
// fires), so tests can pile up concurrent callers on one in-flight query.
type gateSearcher struct {
	gate  chan struct{}
	calls atomic.Int64
}

func newGateSearcher() *gateSearcher { return &gateSearcher{gate: make(chan struct{})} }

func (g *gateSearcher) Search(q core.Query) []core.Match {
	ms, _ := g.SearchContext(context.Background(), q)
	return ms
}
func (g *gateSearcher) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	g.calls.Add(1)
	select {
	case <-g.gate:
		return []core.Match{{ID: 7, Dist: 1}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
func (g *gateSearcher) Name() string { return "gate-stub" }
func (g *gateSearcher) Len() int     { return 1 }

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		//lint:ignore nosleeptest deadline-bounded poll of an arbitrary condition (flight refcounts, counters); not a fixed-delay sync
		time.Sleep(time.Millisecond)
	}
}

var testData = []string{"berlin", "bern", "bonn", "ulm", "munich", "hamburg"}

func TestHitServedWithoutEngine(t *testing.T) {
	eng := &countingSearcher{inner: core.NewTrie(testData, true)}
	c := New(eng, Options{Capacity: 16})
	q := core.Query{Text: "berlni", K: 2}
	want := core.NewTrie(testData, true).Search(q)

	first := c.Search(q)
	second := c.Search(q)
	if !slices.Equal(first, want) || !slices.Equal(second, want) {
		t.Fatalf("cached results diverge: first=%v second=%v want=%v", first, second, want)
	}
	if n := eng.calls.Load(); n != 1 {
		t.Errorf("engine searched %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestEmptyResultIsCached(t *testing.T) {
	eng := &countingSearcher{inner: core.NewTrie(testData, true)}
	c := New(eng, Options{})
	q := core.Query{Text: "zzzzzzzz", K: 0}
	if ms := c.Search(q); len(ms) != 0 {
		t.Fatalf("unexpected matches %v", ms)
	}
	c.Search(q)
	if n := eng.calls.Load(); n != 1 {
		t.Errorf("empty result not cached: %d engine calls", n)
	}
}

func TestHitReturnsPrivateCopy(t *testing.T) {
	c := New(core.NewTrie(testData, true), Options{})
	q := core.Query{Text: "bern", K: 2}
	want := core.NewTrie(testData, true).Search(q)

	got := c.Search(q)
	for i := range got {
		got[i].ID, got[i].Dist = -1, -1 // downstream in-place mutation
	}
	if again := c.Search(q); !slices.Equal(again, want) {
		t.Fatalf("cached entry corrupted by caller mutation: %v, want %v", again, want)
	}
}

func TestLRUEviction(t *testing.T) {
	eng := &countingSearcher{inner: core.NewTrie(testData, true)}
	c := New(eng, Options{Capacity: 2, shards: 1})
	qa := core.Query{Text: "berlin", K: 1}
	qb := core.Query{Text: "bonn", K: 1}
	qc := core.Query{Text: "ulm", K: 1}

	c.Search(qa)
	c.Search(qb)
	c.Search(qa) // promote qa to MRU
	c.Search(qc) // evicts qb, the LRU entry
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	base := eng.calls.Load()
	c.Search(qa) // still cached
	if n := eng.calls.Load(); n != base {
		t.Errorf("promoted entry was evicted (engine calls %d -> %d)", base, n)
	}
	c.Search(qb) // evicted: engine again
	if n := eng.calls.Load(); n != base+1 {
		t.Errorf("evicted entry served from cache (engine calls %d -> %d)", base, n)
	}
}

// versionedSearcher is countingSearcher with a generation the test advances,
// as a live engine's advances on every effective mutation.
type versionedSearcher struct {
	countingSearcher
	gen atomic.Int64
}

func (v *versionedSearcher) VersionString() string { return "g" + strconv.FormatInt(v.gen.Load(), 10) }

// decorator is a layer with no version of its own over the engine it wraps.
type decorator struct{ core.Searcher }

func (d decorator) Unwrap() core.Searcher { return d.Searcher }

// TestVersionInvalidates: the cache keys on the wrapped engine's
// VersionString, so advancing it retires the cached entry.
func TestVersionInvalidates(t *testing.T) {
	eng := &versionedSearcher{countingSearcher: countingSearcher{inner: core.NewTrie(testData, true)}}
	c := New(eng, Options{})
	q := core.Query{Text: "bern", K: 1}
	c.Search(q)
	c.Search(q)
	if n := eng.calls.Load(); n != 1 {
		t.Fatalf("warm-up: %d engine calls", n)
	}
	eng.gen.Add(1)
	if v := c.Version(); v != "g1" {
		t.Fatalf("Version() = %q", v)
	}
	// Under a layer without a version the cache finds it down the chain.
	if v := New(decorator{eng}, Options{}).Version(); v != "g1" {
		t.Fatalf("Version() through Unwrap = %q", v)
	}
	c.Search(q)
	if n := eng.calls.Load(); n != 2 {
		t.Errorf("stale entry served across a version advance (%d engine calls)", n)
	}
	// The g0 entry is unreachable but still occupies a slot until Flush.
	if st := c.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2 (stale + fresh)", st.Entries)
	}
	c.Flush()
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d after Flush, want 0", st.Entries)
	}
}

func TestCoalesceConcurrentIdentical(t *testing.T) {
	g := newGateSearcher()
	c := New(g, Options{})
	q := core.Query{Text: "x", K: 1}

	const callers = 8
	results := make([][]core.Match, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.SearchContext(context.Background(), q)
		}(i)
	}
	waitUntil(t, "all callers to pile up on one flight", func() bool {
		st := c.Stats()
		return st.Misses == 1 && st.Coalesced == callers-1
	})
	close(g.gate)
	wg.Wait()

	want := []core.Match{{ID: 7, Dist: 1}}
	for i := 0; i < callers; i++ {
		if errs[i] != nil || !slices.Equal(results[i], want) {
			t.Errorf("caller %d: ms=%v err=%v", i, results[i], errs[i])
		}
	}
	if n := g.calls.Load(); n != 1 {
		t.Errorf("engine searched %d times for %d concurrent callers", n, callers)
	}
	// Distinct slices: one caller's mutation cannot reach another's result.
	results[0][0].Dist = 99
	if results[1][0].Dist == 99 {
		t.Error("coalesced callers share one match slice")
	}
}

func TestCancelledLeaderDoesNotPoisonWaiters(t *testing.T) {
	g := newGateSearcher()
	c := New(g, Options{})
	q := core.Query{Text: "x", K: 1}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.SearchContext(leaderCtx, q)
		leaderErr <- err
	}()
	waitUntil(t, "leader flight", func() bool { return c.Stats().Misses == 1 })

	const waiters = 3
	results := make([][]core.Match, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.SearchContext(context.Background(), q)
		}(i)
	}
	waitUntil(t, "waiters to join", func() bool { return c.Stats().Coalesced == waiters })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	close(g.gate) // the flight is still alive: waiters hold a reference
	wg.Wait()

	want := []core.Match{{ID: 7, Dist: 1}}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil || !slices.Equal(results[i], want) {
			t.Errorf("waiter %d poisoned by leader cancellation: ms=%v err=%v",
				i, results[i], errs[i])
		}
	}
	if n := g.calls.Load(); n != 1 {
		t.Errorf("engine searched %d times, want 1", n)
	}
}

func TestAbandonedFlightAborts(t *testing.T) {
	g := newGateSearcher()
	c := New(g, Options{})
	q := core.Query{Text: "x", K: 1}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.SearchContext(ctx, q)
		errCh <- err
	}()
	waitUntil(t, "flight launch", func() bool { return g.calls.Load() == 1 })
	cancel() // last interested caller leaves: the flight context must fire
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v", err)
	}
	// The engine search unblocks via the cancelled flight context (the gate
	// is never opened for it), and nothing is cached.
	waitUntil(t, "flight cleanup", func() bool {
		c.fmu.Lock()
		n := len(c.flights)
		c.fmu.Unlock()
		return n == 0
	})
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("aborted flight cached %d entries", st.Entries)
	}

	// A fresh caller gets a fresh flight — not the stale context error.
	close(g.gate)
	ms, err := c.SearchContext(context.Background(), q)
	if err != nil || !slices.Equal(ms, []core.Match{{ID: 7, Dist: 1}}) {
		t.Fatalf("post-abort search: ms=%v err=%v", ms, err)
	}
	if n := g.calls.Load(); n != 2 {
		t.Errorf("engine calls = %d, want 2 (aborted + fresh)", n)
	}
}

// TestConcurrentMixedLoad hammers one small cache from many goroutines with
// overlapping query sets, forcing concurrent hits, misses, coalesced joins,
// and evictions. Run under -race it is the data-race proof; the per-call
// result check is the correctness proof.
func TestConcurrentMixedLoad(t *testing.T) {
	data := dataset.Cities(300, 3)
	queries := dataset.Queries(data, 24, 2, 5)
	ref := core.NewTrie(data, true)
	want := make(map[string][]core.Match, len(queries))
	qs := make([]core.Query, len(queries))
	for i, text := range queries {
		qs[i] = core.Query{Text: text, K: 1 + i%3}
		want[c0key(qs[i])] = ref.Search(qs[i])
	}

	c := New(core.NewTrie(data, true), Options{Capacity: 8, shards: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				q := qs[rng.Intn(len(qs))]
				if rng.Intn(8) == 0 {
					c.Flush()
					continue
				}
				got := c.Search(q)
				if !slices.Equal(got, want[c0key(q)]) {
					t.Errorf("concurrent search diverges on %+v", q)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("load did not exercise all paths: %+v", st)
	}
}

// c0key is a test-local composite key (the cache's own key method is also
// exercised, but the reference map must not depend on it).
func c0key(q core.Query) string { return q.Text + "\x00" + string(rune('0'+q.K)) }

func TestBatchDedupAndHits(t *testing.T) {
	eng := &countingSearcher{inner: core.NewTrie(testData, true)}
	c := New(eng, Options{})
	ref := core.NewTrie(testData, true)
	qa := core.Query{Text: "berlni", K: 2}
	qb := core.Query{Text: "ulm", K: 1}

	// a, b, a, a: two unique misses, two in-batch coalesced duplicates.
	res, err := c.SearchBatchContext(context.Background(), []core.Query{qa, qb, qa, qa})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range []core.Query{qa, qb, qa, qa} {
		if res[i].Err != nil || !slices.Equal(res[i].Matches, ref.Search(q)) {
			t.Errorf("batch[%d] = %+v", i, res[i])
		}
	}
	if n := eng.calls.Load(); n != 2 {
		t.Errorf("engine calls = %d, want 2 unique misses", n)
	}
	if st := c.Stats(); st.Misses != 2 || st.Coalesced != 2 {
		t.Errorf("stats = %+v, want 2 misses / 2 coalesced", st)
	}
	// Duplicates receive distinct slices.
	if len(res[2].Matches) > 0 {
		res[2].Matches[0].Dist = 99
		if res[3].Matches[0].Dist == 99 {
			t.Error("batch duplicates share one match slice")
		}
	}

	// The whole batch is warm now.
	res, err = c.SearchBatchContext(context.Background(), []core.Query{qa, qb})
	if err != nil || res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("warm batch: res=%+v err=%v", res, err)
	}
	if n := eng.calls.Load(); n != 2 {
		t.Errorf("warm batch reached the engine (%d calls)", n)
	}
	if st := c.Stats(); st.Hits != 2 {
		t.Errorf("stats = %+v, want 2 hits", st)
	}
}

func TestBatchOverShardedInner(t *testing.T) {
	data := dataset.Cities(200, 9)
	ex := exec.New(data, exec.Options{Shards: 4})
	c := New(ex, Options{})
	ref := core.NewTrie(data, true)

	qs := make([]core.Query, 0, 12)
	for _, text := range dataset.Queries(data, 6, 2, 11) {
		qs = append(qs, core.Query{Text: text, K: 2})
	}
	qs = append(qs, qs[:6]...) // every query appears twice

	res, err := c.SearchBatchContext(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if res[i].Err != nil || !slices.Equal(res[i].Matches, ref.Search(q)) {
			t.Errorf("sharded batch[%d] diverges on %+v", i, q)
		}
	}
	if st := c.Stats(); st.Misses != 6 || st.Coalesced != 6 {
		t.Errorf("stats = %+v, want 6 misses / 6 coalesced", st)
	}
}

func TestBatchPerQueryErrorsNotCached(t *testing.T) {
	// Blocking shards plus a per-query deadline: every miss reports its own
	// deadline error, and no error is ever cached.
	ex := exec.New(make([]string, 4), exec.Options{
		Shards: 2,
		Factory: func(d []string) core.Searcher {
			g := &gateSearcher{gate: make(chan struct{})} // never opened
			return g
		},
	})
	c := New(ex, Options{})
	qs := []core.Query{{Text: "x", K: 1}, {Text: "y", K: 1}}

	ctx := core.WithQueryTimeout(context.Background(), 10*time.Millisecond)
	res, err := c.SearchBatchContext(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !errors.Is(res[i].Err, context.DeadlineExceeded) {
			t.Errorf("batch[%d].Err = %v, want deadline", i, res[i].Err)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed queries were cached: %+v", st)
	}
	// A retry reaches the engine again (no negative caching).
	res, _ = c.SearchBatchContext(ctx, qs[:1])
	if res[0].Err == nil {
		t.Error("retry after failure served from cache")
	}
	if st := c.Stats(); st.Misses != 3 {
		t.Errorf("misses = %d, want 3", st.Misses)
	}
}

func TestBatchContextDeadKillsRequest(t *testing.T) {
	c := New(core.NewTrie(testData, true), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SearchBatchContext(ctx, []core.Query{{Text: "x", K: 1}}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := c.SearchContext(ctx, core.Query{Text: "x", K: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestDecoratorSurface(t *testing.T) {
	inner := core.NewTrie(testData, true)
	c := New(inner, Options{})
	if c.Name() != "cached/"+inner.Name() {
		t.Errorf("Name() = %q", c.Name())
	}
	if c.Len() != len(testData) {
		t.Errorf("Len() = %d", c.Len())
	}
	if c.Unwrap() != core.Searcher(inner) {
		t.Error("Unwrap() lost the inner engine")
	}
	// SearchBatch (the plain Batcher face) matches the context face.
	out := c.SearchBatch([]core.Query{{Text: "bern", K: 1}})
	if len(out) != 1 || !slices.Equal(out[0], inner.Search(core.Query{Text: "bern", K: 1})) {
		t.Errorf("SearchBatch = %v", out)
	}
}

func TestCapacityRounding(t *testing.T) {
	// 10 entries over 8 shards: 2 per shard, effective capacity 16 >= 10.
	c := New(core.NewTrie(testData, true), Options{Capacity: 10})
	if st := c.Stats(); st.Capacity < 10 {
		t.Errorf("effective capacity %d below requested 10", st.Capacity)
	}
	// Defaults.
	c = New(core.NewTrie(testData, true), Options{})
	if st := c.Stats(); st.Capacity < 4096 {
		t.Errorf("default capacity %d below 4096", st.Capacity)
	}
}
