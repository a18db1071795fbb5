// Live executor: the mutable counterpart of New. P lsm.Stores share one id
// allocator, and the executor over them is the same Sharded a frozen
// dataset gets — one single-query path, one batch grid, one merge,
// per-store counters. What this file adds in front of it is the write
// surface: routing by a hash of the string (lookup-by-string must find the
// store that owns the binding), the generation a result cache keys on, and
// the stores' own statistics. Live stores interleave ids, so the merge
// does real work here where the frozen ranges only concatenate.
package exec

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"

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
	// Runner runs a batch's store×query task grid (default pool.Fixed
	// over GOMAXPROCS workers); single searches never reach it.
	Runner pool.Runner
	// flushLimit tunes each store (see lsm.Options; tests only).
	flushLimit int
}

// LiveSharded is the mutable executor: the write surface (Insert, Delete,
// Flush, Compact), the id resolver the HTTP layer echoes strings from and the
// generation, in front of the Sharded executor over its stores, which
// answers every search.
type LiveSharded struct {
	*Sharded
	stores  []*lsm.Store
	version atomic.Uint64 // effective mutations, folded into VersionString
	inserts atomic.Uint64
	deletes atomic.Uint64
}

// NewLive opens (or recovers) P stores behind one id allocator.
func NewLive(o LiveOptions) (*LiveSharded, error) {
	p := o.Shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	x := &LiveSharded{stores: make([]*lsm.Store, p)}
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
	shards := make([]shard, p)
	for i, st := range x.stores {
		shards[i] = shard{eng: st}
	}
	x.Sharded = newSharded(fmt.Sprintf("live-%d/lsm", p), shards, o.Runner)
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

// Unwrap returns the executor over the stores, so the layers that walk the
// decorator chain find its per-store counters.
func (x *LiveSharded) Unwrap() core.Searcher { return x.Sharded }

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

// VersionString returns the generation tag a result cache over the
// executor keys its lookups on: it changes exactly when an effective
// mutation lands, so version-in-key lookups can never serve pre-mutation
// results.
func (x *LiveSharded) VersionString() string {
	return "live-g" + strconv.FormatUint(x.version.Load(), 10)
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
