// Package cache is a query-result cache for the serving path: a sharded LRU
// keyed on (engine name, dataset version, threshold k, query text) with a
// singleflight-style coalescer, wrapped as a core.Searcher decorator. Real
// query streams are highly skewed (a few popular strings dominate), so a
// result cache in front of the scan/index engines turns the common case from
// a full scan into a map lookup, and the coalescer collapses N concurrent
// identical queries into exactly one engine search.
//
// Correctness contract: the cache is transparent. For every query it returns
// byte-identical matches to the wrapped engine (enforced by a differential
// fuzz target), and every caller gets its own copy of the match slice, so
// downstream in-place mutation (top-k reordering, shard ID remapping) can
// never corrupt a cached entry.
//
// Invalidation: the dataset version participates in the key, and the cache
// reads it from the engine it wraps (VersionString, the live engine's
// generation) on every lookup, so an effective mutation retires every cached
// entry the moment it lands — including results of still-in-flight searches
// keyed under the old version — without touching concurrent readers. A
// frozen engine has no version and keys on "". Flush additionally releases
// the memory.
//
// Coalescing protocol: the first miss for a key becomes the flight leader;
// the engine search runs on its own goroutine under a flight-owned context,
// so a cancelled leader does not poison the waiters — the flight is aborted
// only when the last interested caller has given up. Waiters observe their
// own context while blocked, so per-request deadlines still produce 504s.
package cache

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"simsearch/internal/core"
	"simsearch/internal/metrics"
)

// Options configures New. The zero value gives a 4096-entry cache over 8
// shards.
type Options struct {
	// Capacity is the total entry budget across all shards (default 4096).
	// Each shard holds Capacity/shards entries (rounded up, minimum 1), so
	// the effective capacity is at least the requested one. Capacity counts
	// entries, not bytes.
	Capacity int
	// shards is the lock-striping factor, rounded up to a power of two
	// (default 8; tests set others). More shards reduce mutex contention on
	// the hit path.
	shards int
}

// entry is one cached result, threaded on its shard's LRU list.
type entry struct {
	key        string
	ms         []core.Match // lint:cacheowned — leaves only via copyMatches
	prev, next *entry       // MRU at head
}

// shard is one lock stripe: a map plus an intrusive LRU list.
type shard struct {
	mu         sync.Mutex
	m          map[string]*entry
	head, tail *entry
	cap        int
	evictions  *metrics.Counter // shared across shards
}

// flight is one in-progress engine search being coalesced. refs counts the
// callers still interested in the result; the flight context is cancelled
// when it reaches zero, aborting the engine work nobody is waiting for.
type flight struct {
	done   chan struct{}
	ms     []core.Match // lint:cacheowned — leaves only via copyMatches
	err    error
	refs   atomic.Int32
	cancel context.CancelFunc
}

// Cache decorates a core.Searcher with a query-result cache. It implements
// core.Searcher and core.ContextSearcher, and answers core.SearchBatch's and
// core.SearchBatchContext's whole batches, so it drops in anywhere the wrapped
// engine does — including above the sharded executor's fan-out, where one hit saves a whole shard×query task
// row. All methods are safe for concurrent use.
type Cache struct {
	inner   core.Searcher
	name    string
	shards  []*shard
	mask    uint64
	version func() string // the engine's VersionString; "" for a frozen engine

	fmu     sync.Mutex
	flights map[string]*flight

	hits, misses, coalesced, evictions metrics.Counter
}

// New wraps eng in a result cache configured by opts. Lookups are keyed on
// the VersionString of eng, or of the first layer of its Unwrap chain that
// has one. The wrapped engine is still reachable through Unwrap (the HTTP
// layer uses this to surface both cache and shard statistics).
func New(eng core.Searcher, opts Options) *Cache {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 4096
	}
	n := opts.shards
	if n <= 0 {
		n = 8
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	perShard := (capacity + pow - 1) / pow
	c := &Cache{
		inner:   eng,
		name:    "cached/" + eng.Name(),
		shards:  make([]*shard, pow),
		mask:    uint64(pow - 1),
		version: func() string { return "" },
		flights: make(map[string]*flight),
	}
	for i := range c.shards {
		c.shards[i] = &shard{m: make(map[string]*entry), cap: perShard, evictions: &c.evictions}
	}
	for e := eng; ; {
		if v, ok := e.(interface{ VersionString() string }); ok {
			c.version = v.VersionString
			break
		}
		u, ok := e.(interface{ Unwrap() core.Searcher })
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	return c
}

// Name implements core.Searcher.
func (c *Cache) Name() string { return c.name }

// Len implements core.Searcher.
func (c *Cache) Len() int { return c.inner.Len() }

// Unwrap returns the decorated engine.
func (c *Cache) Unwrap() core.Searcher { return c.inner }

// Version returns the wrapped engine's current dataset version. When it
// changes, every entry cached under the old one becomes unreachable —
// including results of in-flight searches that started before the change,
// which complete and insert under their stale key. Stale entries are
// reclaimed by Flush or by normal LRU pressure.
func (c *Cache) Version() string { return c.version() }

// Flush drops every cached entry (it does not interrupt in-flight searches).
func (c *Cache) Flush() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.m = make(map[string]*entry)
		sh.head, sh.tail = nil, nil
		sh.mu.Unlock()
	}
}

// key renders the cache key: engine name, dataset version, threshold, text.
// \x00 separators keep the fields unambiguous (query text is the only field
// that could contain them, and it comes last).
func (c *Cache) key(q core.Query) string {
	v := c.Version()
	var b strings.Builder
	b.Grow(len(c.name) + len(v) + len(q.Text) + 8)
	b.WriteString(c.name)
	b.WriteByte(0)
	b.WriteString(v)
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(q.K))
	b.WriteByte(0)
	b.WriteString(q.Text)
	return b.String()
}

// shardFor picks the lock stripe by FNV-1a of the key.
func (c *Cache) shardFor(key string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return c.shards[h&c.mask]
}

// copyMatches returns a private copy, so callers may mutate their result
// freely (top-k sorts in place; the executor remaps IDs in place).
//
//lint:copyhelper — the one sanctioned way a cache-owned slice reaches a caller.
func copyMatches(ms []core.Match) []core.Match {
	if ms == nil {
		return nil
	}
	out := make([]core.Match, len(ms))
	copy(out, ms)
	return out
}

// get returns a copy of the entry under key, promoting it to MRU.
func (sh *shard) get(key string) ([]core.Match, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[key]
	if !ok {
		return nil, false
	}
	sh.moveToFront(e)
	return copyMatches(e.ms), true
}

// put inserts (or refreshes) key, evicting from the LRU tail over capacity.
func (sh *shard) put(key string, ms []core.Match) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[key]; ok {
		e.ms = ms
		sh.moveToFront(e)
		return
	}
	e := &entry{key: key, ms: ms}
	sh.m[key] = e
	sh.pushFront(e)
	for len(sh.m) > sh.cap {
		last := sh.tail
		sh.unlink(last)
		delete(sh.m, last.key)
		sh.evictions.Inc()
	}
}

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// lookup serves a hit (counted) or reports a miss (not counted — the miss is
// attributed by the caller to either a new flight or a coalesced join).
func (c *Cache) lookup(key string) ([]core.Match, bool) {
	ms, ok := c.shardFor(key).get(key)
	if ok {
		c.hits.Inc()
	}
	return ms, ok
}

// insert caches a completed result under key. The slice is owned by the
// cache from here on (callers of New's decorator never see it directly —
// every read path copies).
func (c *Cache) insert(key string, ms []core.Match) {
	c.shardFor(key).put(key, ms)
}

// Search implements core.Searcher.
func (c *Cache) Search(q core.Query) []core.Match {
	ms, _ := c.SearchContext(context.Background(), q)
	return ms
}

// SearchContext implements core.ContextSearcher: a hit returns immediately, a
// miss either starts a flight or joins the one already running for the same
// key. The caller's ctx bounds only its own wait; the engine search runs
// under the flight's context (see the package comment).
func (c *Cache) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	key := c.key(q)
	if ms, ok := c.lookup(key); ok {
		return ms, nil
	}
	return c.wait(ctx, c.join(key, q))
}

// join returns the flight answering key, creating (and launching) it if none
// is running. A flight whose last waiter has already given up is treated as
// absent: its result — inevitably a context error — must not leak to a
// fresh caller. The fresh flight (context included) is built before fmu is
// taken, so register's critical section is pure map-and-atomic work under a
// defer: nothing in it can panic with the lock held.
func (c *Cache) join(key string, q core.Query) *flight {
	fctx, cancel := context.WithCancel(context.Background())
	nf := &flight{done: make(chan struct{}), cancel: cancel}
	nf.refs.Store(1)
	f, joined := c.register(key, nf)
	if joined {
		cancel() // discard the speculative flight's context
		c.coalesced.Inc()
		return f
	}
	c.misses.Inc()
	go c.run(fctx, key, nf, q)
	return nf
}

// register installs nf under key, unless a live flight already answers key —
// then it joins that one (refcount bumped under the same lock that read it).
func (c *Cache) register(key string, nf *flight) (f *flight, joined bool) {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	if f, ok := c.flights[key]; ok && f.refs.Load() > 0 {
		f.refs.Add(1)
		return f, true
	}
	c.flights[key] = nf
	return nf, false
}

// run executes the engine search for one flight and broadcasts the result.
// The insert happens before the flight is retired and before done is closed:
// a caller returning from its miss is guaranteed to hit on its next lookup,
// and a new caller arriving in between either hits the table or joins the
// still-registered flight — never re-runs the engine for a computed result.
func (c *Cache) run(fctx context.Context, key string, f *flight, q core.Query) {
	ms, err := core.SearchContext(fctx, c.inner, q)
	f.ms, f.err = ms, err
	if err == nil {
		c.insert(key, ms)
	}
	c.fmu.Lock()
	// A fresh flight may have replaced an abandoned one under this key;
	// only remove the mapping if it is still ours.
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	c.fmu.Unlock()
	close(f.done)
	f.cancel()
}

// wait blocks until the flight completes or the caller's ctx fires. A caller
// that gives up decrements the flight's refcount; the last one to leave
// cancels the flight, aborting engine work nobody wants.
func (c *Cache) wait(ctx context.Context, f *flight) ([]core.Match, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-f.done:
		if f.err != nil {
			return nil, f.err
		}
		return copyMatches(f.ms), nil
	case <-done:
		// The decrement is serialized with join's check-then-increment by
		// fmu, so a fresh caller can never attach to a flight in the same
		// instant its refcount reaches zero and its context is cancelled.
		c.fmu.Lock()
		last := f.refs.Add(-1) == 0
		c.fmu.Unlock()
		if last {
			f.cancel()
		}
		return nil, ctx.Err()
	}
}

// SearchBatch answers a batch, as core.SearchBatch asks.
func (c *Cache) SearchBatch(qs []core.Query) [][]core.Match {
	res, _ := c.SearchBatchContext(context.Background(), qs)
	out := make([][]core.Match, len(qs))
	for i, r := range res {
		out[i] = r.Matches
	}
	return out
}

// SearchBatchContext answers a batch under ctx with per-query outcomes, as
// core.SearchBatchContext asks: hits are answered from the cache, duplicate
// misses within the batch are deduplicated (counted as coalesced), and the
// remaining unique misses are forwarded to the wrapped engine as one
// sub-batch through core.SearchBatchContext — shard-parallel when the engine
// is the sharded executor, serial under ctx's per-query budget otherwise.
func (c *Cache) SearchBatchContext(ctx context.Context, qs []core.Query) ([]core.QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]core.QueryResult, len(qs))
	type missGroup struct {
		q    core.Query
		idxs []int
	}
	var order []string
	groups := make(map[string]*missGroup)
	for i, q := range qs {
		key := c.key(q)
		if ms, ok := c.lookup(key); ok {
			out[i] = core.QueryResult{Matches: ms}
			continue
		}
		g, ok := groups[key]
		if !ok {
			c.misses.Inc()
			g = &missGroup{q: q}
			groups[key] = g
			order = append(order, key)
		} else {
			c.coalesced.Inc()
		}
		g.idxs = append(g.idxs, i)
	}
	if len(order) == 0 {
		return out, nil
	}

	sub := make([]core.Query, len(order))
	for j, key := range order {
		sub[j] = groups[key].q
	}
	res, err := core.SearchBatchContext(ctx, c.inner, sub)
	if err != nil {
		return nil, err
	}

	for j, key := range order {
		r := res[j]
		if r.Err == nil {
			c.insert(key, r.Matches)
		}
		for _, i := range groups[key].idxs {
			if r.Err != nil {
				out[i] = core.QueryResult{Err: r.Err}
			} else {
				out[i] = core.QueryResult{Matches: copyMatches(r.Matches)}
			}
		}
	}
	return out, nil
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 `json:"hits"`      // lookups served from the table
	Misses    uint64 `json:"misses"`    // lookups that started an engine search
	Coalesced uint64 `json:"coalesced"` // lookups that joined an in-flight or in-batch duplicate
	Evictions uint64 `json:"evictions"` // entries dropped by LRU pressure
	Entries   int    `json:"entries"`   // entries currently cached
	Capacity  int    `json:"capacity"`  // total entry budget
}

// HitRate returns hits / (hits + misses + coalesced), the fraction of
// lookups that did not lead an engine search themselves.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the current counter values and table occupancy.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Coalesced: c.coalesced.Value(),
		Evictions: c.evictions.Value(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Entries += len(sh.m)
		s.Capacity += sh.cap
		sh.mu.Unlock()
	}
	return s
}

// Describe reports Stats, the hit rate and the dataset version as the /stats
// "cache" section; for a live engine the version advances on each effective
// mutation, which makes invalidation observable there.
func (c *Cache) Describe() (string, any) {
	st := c.Stats()
	return "cache", struct {
		Stats
		HitRate float64 `json:"hit_rate"`
		Version string  `json:"version,omitempty"`
	}{st, st.HitRate(), c.Version()}
}

// RegisterMetrics exposes the cache counters on reg under simsearch_cache_*
// names. The funcs read the live counters, so one registration covers the
// cache's whole lifetime.
func (c *Cache) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("simsearch_cache_hits_total",
		"Query lookups served from the result cache.",
		func() float64 { return float64(c.hits.Value()) })
	reg.CounterFunc("simsearch_cache_misses_total",
		"Query lookups that started an engine search.",
		func() float64 { return float64(c.misses.Value()) })
	reg.CounterFunc("simsearch_cache_coalesced_total",
		"Query lookups collapsed into an in-flight duplicate.",
		func() float64 { return float64(c.coalesced.Value()) })
	reg.CounterFunc("simsearch_cache_evictions_total",
		"Cached results dropped by LRU pressure.",
		func() float64 { return float64(c.evictions.Value()) })
	reg.GaugeFunc("simsearch_cache_entries",
		"Results currently cached.",
		func() float64 { return float64(c.Stats().Entries) })
}
