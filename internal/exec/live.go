// Live executor: the mutable counterpart of Sharded. P lsm.Stores share one
// id allocator; writes are routed by a hash of the string (lookup-by-string
// must find the shard that owns the binding), a search asks every shard —
// in order on the caller's goroutine, or fanned out when splitRule says a
// store's share is long enough — and k-way merges by global id. Unlike the
// frozen executor's contiguous-range partition, live shards interleave ids,
// so the merge is a real merge rather than a concatenation — but each shard
// emits ID-sorted results, so it stays linear.
package exec

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/lsm"
	"simsearch/internal/metrics"
	"simsearch/internal/pool"
)

// LiveOptions configures NewLive. The zero value gives one shard per CPU
// and a memory-only store.
type LiveOptions struct {
	// Shards is the store count P (default GOMAXPROCS).
	Shards int
	// Seed is the initial dictionary; duplicates are dropped, first
	// occurrence wins, string i (after dedup) gets id i — the same layout
	// a frozen engine over the slice would use. Ignored for shards whose
	// directory already holds state.
	Seed []string
	// Dir, when set, persists each store under Dir/shard-<i>.
	Dir string
	// Runner runs the stores of a search long enough to split (default
	// pool.Fixed over GOMAXPROCS workers); shorter searches never reach it.
	Runner pool.Runner
	// flushLimit tunes each store (see lsm.Options; tests only).
	flushLimit int
}

// LiveSharded is the mutable executor. It implements core.Searcher and
// core.ContextSearcher plus the write surface (Insert, Delete, Flush,
// Compact) and the id resolver the HTTP layer echoes strings from.
type LiveSharded struct {
	stores  []*lsm.Store
	runner  pool.Runner
	name    string
	version atomic.Uint64 // effective mutations, folded into VersionString
	inserts atomic.Uint64
	deletes atomic.Uint64
	rule    splitRule
}

// NewLive opens (or recovers) P stores behind one id allocator.
func NewLive(o LiveOptions) (*LiveSharded, error) {
	p := o.Shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	runner := o.Runner
	if runner == nil {
		runner = pool.Fixed{Workers: runtime.GOMAXPROCS(0)}
	}
	x := &LiveSharded{
		stores: make([]*lsm.Store, p),
		runner: runner,
		name:   fmt.Sprintf("live-%d/lsm", p),
	}
	alloc := &lsm.IDAlloc{}
	seeds := make([][]lsm.SeedEntry, p)
	seen := make(map[string]bool, len(o.Seed))
	var next int32
	for _, s := range o.Seed {
		if seen[s] {
			continue
		}
		seen[s] = true
		sh := shardOf(s, p)
		seeds[sh] = append(seeds[sh], lsm.SeedEntry{ID: next, S: s})
		next++
	}
	for i := range x.stores {
		dir := ""
		if o.Dir != "" {
			dir = filepath.Join(o.Dir, fmt.Sprintf("shard-%d", i))
		}
		st, err := lsm.Open(lsm.Options{
			Dir:        dir,
			Seed:       seeds[i],
			FlushLimit: o.flushLimit,
			Alloc:      alloc,
		})
		if err != nil {
			for _, prev := range x.stores[:i] {
				prev.Close()
			}
			return nil, err
		}
		x.stores[i] = st
	}
	return x, nil
}

// shardOf routes a string to its owning store (FNV-1a of the bytes mod P).
func shardOf(s string, p int) int {
	h := fnv.New32a()
	h.Write([]byte(s))
	return int(h.Sum32() % uint32(p))
}

// Close closes every store.
func (x *LiveSharded) Close() error {
	var errs []error
	for _, st := range x.stores {
		if err := st.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Insert adds s to its owning shard, reporting the binding's id and whether
// anything changed.
func (x *LiveSharded) Insert(s string) (int32, bool, error) {
	id, added, err := x.stores[shardOf(s, len(x.stores))].Insert(s)
	if added {
		x.version.Add(1)
		x.inserts.Add(1)
	}
	return id, added, err
}

// Delete tombstones s in its owning shard.
func (x *LiveSharded) Delete(s string) (bool, error) {
	changed, err := x.stores[shardOf(s, len(x.stores))].Delete(s)
	if changed {
		x.version.Add(1)
		x.deletes.Add(1)
	}
	return changed, err
}

// Flush freezes every shard's delta.
func (x *LiveSharded) Flush() error {
	var errs []error
	for _, st := range x.stores {
		if err := st.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Compact merges every shard's segments.
func (x *LiveSharded) Compact() error {
	var errs []error
	for _, st := range x.stores {
		if err := st.Compact(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Name implements core.Searcher.
func (x *LiveSharded) Name() string { return x.name }

// Len implements core.Searcher: total live strings.
func (x *LiveSharded) Len() int {
	n := 0
	for _, st := range x.stores {
		n += st.Len()
	}
	return n
}

// NumShards returns the store count P.
func (x *LiveSharded) NumShards() int { return len(x.stores) }

// StringAt resolves a global id to its bound string by probing each shard
// (bindings are disjoint across shards, so at most one answers).
func (x *LiveSharded) StringAt(id int32) (string, bool) {
	for _, st := range x.stores {
		if s, ok := st.StringAt(id); ok {
			return s, true
		}
	}
	return "", false
}

// VersionString returns the generation tag callers push into the query
// cache via cache.SetVersion: it changes exactly when an effective mutation
// lands, so version-in-key lookups can never serve pre-mutation results.
func (x *LiveSharded) VersionString() string {
	return "live-g" + strconv.FormatUint(x.version.Load(), 10)
}

// Search implements core.Searcher: every shard, merged by id.
func (x *LiveSharded) Search(q core.Query) []core.Match {
	ms, _ := x.SearchContext(nil, q)
	return ms
}

// SearchContext implements core.ContextSearcher: the stores one after
// another on the caller's goroutine, or fanned out when the executor's
// splitRule says a store's share at q.K is long enough. Cancellation
// propagates into each store, which checks ctx before it starts and polls
// it in its scan loops.
func (x *LiveSharded) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	p := len(x.stores)
	if p == 1 {
		return x.stores[0].SearchContext(ctx, q)
	}
	per := make([][]core.Match, p)
	if !x.rule.split(q.K) {
		start := time.Now() // one pair around the loop: the sum of the stores' times
		for i, st := range x.stores {
			ms, err := st.SearchContext(ctx, q)
			if err != nil {
				return nil, err
			}
			per[i] = ms
		}
		x.rule.observe(q.K, time.Since(start), p)
		return mergeByID(per), nil
	}
	took := make([]time.Duration, p)
	errs := make([]error, p)
	search := func(i int) {
		start := time.Now()
		per[i], errs[i] = x.stores[i].SearchContext(ctx, q)
		took[i] = time.Since(start)
	}
	if err := pool.RunContext(ctx, x.runner, p, search); err != nil {
		return nil, err
	}
	var busy time.Duration
	for i, e := range errs {
		if e != nil {
			return nil, e
		}
		busy += took[i]
	}
	x.rule.observe(q.K, busy, p)
	return mergeByID(per), nil
}

// mergeByID folds per-shard ID-sorted result lists into one ID-sorted list
// by repeated pairwise merging (shard ids interleave, unlike the contiguous
// frozen partition, so order matters here).
func mergeByID(per [][]core.Match) []core.Match {
	lists := make([][]core.Match, 0, len(per))
	for _, p := range per {
		if len(p) > 0 {
			lists = append(lists, p)
		}
	}
	for len(lists) > 1 {
		next := make([][]core.Match, 0, (len(lists)+1)/2)
		for i := 0; i < len(lists); i += 2 {
			if i+1 == len(lists) {
				next = append(next, lists[i])
				break
			}
			a, b := lists[i], lists[i+1]
			out := make([]core.Match, 0, len(a)+len(b))
			ai, bi := 0, 0
			for ai < len(a) && bi < len(b) {
				if a[ai].ID < b[bi].ID {
					out = append(out, a[ai])
					ai++
				} else {
					out = append(out, b[bi])
					bi++
				}
			}
			out = append(out, a[ai:]...)
			out = append(out, b[bi:]...)
			next = append(next, out)
		}
		lists = next
	}
	if len(lists) == 0 {
		return nil
	}
	return lists[0]
}

// LiveStats aggregates every shard's store statistics; it is the /stats
// "live" section: delta and segment gauges plus the write counters and the
// generation the cache keys carry.
type LiveStats struct {
	Shards         int    `json:"shards"`
	Live           int    `json:"live_strings"`
	Known          int    `json:"known_strings"`
	Tombstones     int    `json:"tombstones"`
	DeltaEntries   int    `json:"delta_entries"`
	Segments       int    `json:"segments"`
	SegmentStrings int    `json:"segment_strings"`
	ArenaBytes     int    `json:"arena_bytes"`
	Flushes        uint64 `json:"flushes"`
	Compactions    uint64 `json:"compactions"`
	Inserts        uint64 `json:"inserts"`
	Deletes        uint64 `json:"deletes"`
	Generation     uint64 `json:"generation"`
	Persistent     bool   `json:"persistent"`
}

// LiveStats returns the aggregated snapshot.
func (x *LiveSharded) LiveStats() LiveStats {
	out := LiveStats{
		Shards:     len(x.stores),
		Inserts:    x.inserts.Load(),
		Deletes:    x.deletes.Load(),
		Generation: x.version.Load(),
	}
	for _, st := range x.stores {
		s := st.Stats()
		out.Live += s.Live
		out.Known += s.Known
		out.Tombstones += s.Tombstones
		out.DeltaEntries += s.DeltaEntries
		out.Segments += s.Segments
		out.SegmentStrings += s.SegmentStrings
		out.ArenaBytes += s.ArenaBytes
		out.Flushes += s.Flushes
		out.Compactions += s.Compactions
		out.Persistent = out.Persistent || s.Persistent
	}
	return out
}

// Describe reports LiveStats as the /stats "live" section.
func (x *LiveSharded) Describe() (string, any) { return "live", x.LiveStats() }

// RegisterMetrics exposes the write counters and store gauges on reg under
// simsearch_live_* names. The registered funcs read live state, so one
// registration covers the executor's lifetime.
func (x *LiveSharded) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("simsearch_live_inserts_total",
		"Effective inserts (no-ops excluded).",
		func() float64 { return float64(x.inserts.Load()) })
	reg.CounterFunc("simsearch_live_deletes_total",
		"Effective deletes (no-ops excluded).",
		func() float64 { return float64(x.deletes.Load()) })
	reg.GaugeFunc("simsearch_live_strings",
		"Live strings across all shards.",
		func() float64 { return float64(x.LiveStats().Live) })
	reg.GaugeFunc("simsearch_live_delta_entries",
		"Unflushed delta entries across all shards.",
		func() float64 { return float64(x.LiveStats().DeltaEntries) })
	reg.GaugeFunc("simsearch_live_segments",
		"Immutable segments across all shards.",
		func() float64 { return float64(x.LiveStats().Segments) })
	reg.CounterFunc("simsearch_live_flushes_total",
		"Delta flushes across all shards.",
		func() float64 { return float64(x.LiveStats().Flushes) })
	reg.CounterFunc("simsearch_live_compactions_total",
		"Segment compactions across all shards.",
		func() float64 { return float64(x.LiveStats().Compactions) })
}
