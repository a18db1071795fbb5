package simsearch

// Live mutable dictionary facade: the LSM-backed engine that accepts inserts
// and deletes while serving searches. See internal/lsm for the storage
// design (delta + immutable segments + compaction + WAL) and internal/exec
// for the sharded executor this wraps.

import (
	"context"

	"simsearch/internal/cache"
	"simsearch/internal/core"
	"simsearch/internal/exec"
	"simsearch/internal/pool"
)

// LiveStats aggregates the live engine's shape: live/known strings,
// tombstones, unflushed delta entries, segment counts, flush/compaction
// totals, and the cache-invalidation generation.
type LiveStats = exec.LiveStats

// Live is the mutable engine: a sharded LSM store behind the standard
// Searcher interface, optionally fronted by the query-result cache. Every
// effective mutation bumps a generation the cache reads into every key, so
// a search issued after an insert or delete can never observe a
// pre-mutation cached result.
//
// Search results are byte-identical to a frozen engine built over the
// current live strings with the dictionary's ids: each distinct string is
// bound to one id at first insert, delete tombstones it, and re-inserting
// revives the same id.
type Live struct {
	ex  *exec.LiveSharded
	eng Searcher // ex, or the cache wrapping it
}

// NewLive builds a memory-only live engine seeded with data (duplicates
// dropped, first occurrence wins, string i gets id i). shards <= 0 selects
// one store per CPU. The stores are searched by the same executor
// NewSharded builds: a search asks them one after another on the caller's
// goroutine; a batch is one store×query task grid. opts contributes Workers
// (the pool batches run on) and CacheSize (query-result cache above the
// stores); other engine options do not apply to the live store.
func NewLive(data []string, shards int, opts Options) *Live {
	lv, err := OpenLive("", data, shards, opts)
	if err != nil {
		// Without a directory there is no IO to fail; this is unreachable.
		panic(err)
	}
	return lv
}

// OpenLive is NewLive with persistence: segment files and a write-ahead log
// under dir (one subdirectory per shard) make every acknowledged mutation
// durable, and opening an existing directory recovers the persisted state
// (data seeds only untouched shards).
func OpenLive(dir string, data []string, shards int, opts Options) (*Live, error) {
	var runner pool.Runner
	if opts.Workers > 0 {
		runner = pool.Fixed{Workers: opts.Workers}
	}
	ex, err := exec.NewLive(exec.LiveOptions{
		Shards: shards,
		Seed:   data,
		Dir:    dir,
		Runner: runner,
	})
	if err != nil {
		return nil, err
	}
	lv := &Live{ex: ex, eng: ex}
	if opts.CacheSize > 0 {
		lv.eng = cache.New(ex, cache.Options{Capacity: opts.CacheSize})
	}
	return lv, nil
}

// Insert adds s to the live dictionary, returning its id and whether the
// engine changed (false when s was already live). A change advances the
// generation, which retires every cached result.
func (l *Live) Insert(s string) (int32, bool, error) { return l.ex.Insert(s) }

// Delete removes s, returning whether the engine changed. The id<->string
// binding is kept, so re-inserting s later revives the same id.
func (l *Live) Delete(s string) (bool, error) { return l.ex.Delete(s) }

// Flush freezes every shard's delta into an immutable segment.
func (l *Live) Flush() error { return l.ex.Flush() }

// Compact merges every shard's segments into one generation per shard.
func (l *Live) Compact() error { return l.ex.Compact() }

// Close releases the stores (and their WAL files, when persistent).
func (l *Live) Close() error { return l.ex.Close() }

// Search implements Searcher.
func (l *Live) Search(q Query) []Match { return l.eng.Search(q) }

// SearchContext makes Live context-aware: cancellation propagates into the
// stride-polled scan loops.
func (l *Live) SearchContext(ctx context.Context, q Query) ([]Match, error) {
	return core.SearchContext(ctx, l.eng, q)
}

// SearchBatchContext answers the batch on the stores' store×query task
// grid, with per-query deadlines, behind the cache when there is one; see
// the package-level SearchBatchContext.
func (l *Live) SearchBatchContext(ctx context.Context, qs []Query) ([]QueryResult, error) {
	return core.SearchBatchContext(ctx, l.eng, qs)
}

// Name implements Searcher.
func (l *Live) Name() string { return l.eng.Name() }

// Len implements Searcher: the live string count.
func (l *Live) Len() int { return l.ex.Len() }

// Unwrap exposes the decorator chain (cache, then executor) so
// observability surfaces can discover the layers, mirroring Cached.Unwrap.
func (l *Live) Unwrap() Searcher { return l.eng }

// StringAt resolves a result id to its string. Bindings are permanent:
// ids captured from a search remain resolvable after concurrent deletes.
func (l *Live) StringAt(id int32) (string, bool) { return l.ex.StringAt(id) }

// VersionString returns the generation tag the cache keys on.
func (l *Live) VersionString() string { return l.ex.VersionString() }

// Stats returns the aggregated store statistics.
func (l *Live) Stats() LiveStats { return l.ex.LiveStats() }
