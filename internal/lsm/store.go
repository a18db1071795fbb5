// Package lsm implements the live mutable dictionary: an LSM-style store
// with a small mutable delta in front of immutable, length-bucketed arena
// segments, tombstones for deletes, a size-triggered background compactor,
// and crash-safe persistence (segment files + a replayable write-ahead log).
//
// The dictionary contract: each distinct string is bound to one id at first
// insert, delete tombstones the id, and re-inserting the same string revives
// the same id. Bindings are never forgotten — tombstones survive compaction —
// so search results over the live store map 1:1 onto a frozen engine built
// over the same live strings (the differential harness in this package
// enforces that, byte for byte, under every interleaving of writes, flushes,
// compactions, and crashes).
package lsm

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"simsearch/internal/core"
	"simsearch/internal/scan"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("lsm: store is closed")

// Default tuning; see Options.
const (
	defaultFlushLimit  = 1024
	defaultMaxSegments = 4
)

// IDAlloc hands out monotonically increasing ids. One allocator can be
// shared by several stores (the sharded executor does this) so ids stay
// globally unique; recovery raises the floor past every persisted id.
type IDAlloc struct {
	next atomic.Int64
}

// alloc returns the next fresh id.
func (a *IDAlloc) alloc() int32 {
	return int32(a.next.Add(1) - 1)
}

// Raise lifts the allocator floor so the next id is at least min.
func (a *IDAlloc) Raise(min int32) {
	for {
		cur := a.next.Load()
		if cur >= int64(min) {
			return
		}
		if a.next.CompareAndSwap(cur, int64(min)) {
			return
		}
	}
}

// SeedEntry is one initial dictionary binding: the caller fixes the id so a
// seeded store matches a frozen engine over the same slice id-for-id.
type SeedEntry struct {
	ID int32
	S  string
}

// Options configures Open.
type Options struct {
	// Dir is the persistence directory; empty means memory-only (no WAL,
	// no segment files, nothing survives Close).
	Dir string
	// Seed is the initial live dictionary, applied only when Dir holds no
	// prior state. Entries must have unique ids and distinct strings.
	Seed []SeedEntry
	// FlushLimit is the delta size that triggers an automatic flush
	// (default 1024).
	FlushLimit int
	// MaxSegments is the segment count above which a flush schedules a
	// background compaction (default 4).
	MaxSegments int
	// Alloc is the id allocator; nil gets a private one. Shared across
	// stores when several shards must draw from one id space.
	Alloc *IDAlloc
	// CompactHook, when set, is called at named stages of a compaction;
	// returning false abandons the compaction at that point, leaving disk
	// state mid-transition. Test-only: this is how the crash-recovery
	// suite simulates dying mid-compaction.
	CompactHook func(stage string) bool
}

// Store is the live mutable dictionary engine. It implements core.Searcher
// and core.ContextSearcher; mutations go through Insert and Delete.
type Store struct {
	mu    sync.RWMutex
	dict  map[int32]string // every binding ever made, live or dead
	index map[string]int32 // inverse of dict
	delta *delta
	segs  []*segment // newest first; the slice is replaced, never edited
	live  int        // live string count
	seq   uint64     // WAL sequence of the newest applied mutation
	gen   uint64     // newest allocated segment generation

	closed bool

	alloc       *IDAlloc
	version     atomic.Uint64 // bumped on every effective mutation
	flushes     atomic.Uint64
	compactions atomic.Uint64

	dir string
	wal *wal

	flushLimit  int
	maxSegments int
	hook        func(string) bool

	cmu       sync.Mutex // serializes compactions (manual and background)
	compactCh chan struct{}
	quit      chan struct{}
	wg        sync.WaitGroup
}

// Open creates or recovers a store. With a Dir, existing segment files and
// the WAL are replayed (Seed is ignored when prior state exists) and the
// recovered state is checkpointed into a single fresh segment.
func Open(o Options) (*Store, error) {
	st := &Store{
		dict:        make(map[int32]string),
		index:       make(map[string]int32),
		delta:       newDelta(),
		alloc:       o.Alloc,
		dir:         o.Dir,
		flushLimit:  o.FlushLimit,
		maxSegments: o.MaxSegments,
		hook:        o.CompactHook,
		compactCh:   make(chan struct{}, 1),
		quit:        make(chan struct{}),
	}
	if st.alloc == nil {
		st.alloc = &IDAlloc{}
	}
	if st.flushLimit <= 0 {
		st.flushLimit = defaultFlushLimit
	}
	if st.maxSegments <= 0 {
		st.maxSegments = defaultMaxSegments
	}
	if st.dir == "" {
		if err := st.applySeed(o.Seed); err != nil {
			return nil, err
		}
		st.startCompactor()
		return st, nil
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	files, err := loadSegments(st.dir)
	if err != nil {
		return nil, err
	}
	walRecs, err := readWAL(filepath.Join(st.dir, walName))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 && len(walRecs) == 0 {
		if err := st.applySeed(o.Seed); err != nil {
			return nil, err
		}
		if len(st.segs) > 0 {
			if err := writeSegmentFile(st.dir, st.segs[0]); err != nil {
				return nil, err
			}
		}
	} else if err := st.recover(files, walRecs); err != nil {
		return nil, err
	}
	st.wal, err = openWAL(filepath.Join(st.dir, walName))
	if err != nil {
		return nil, err
	}
	if err := st.wal.reset(); err != nil {
		st.wal.close()
		return nil, err
	}
	st.startCompactor()
	return st, nil
}

// applySeed installs the initial dictionary as one segment.
func (st *Store) applySeed(seed []SeedEntry) error {
	if len(seed) == 0 {
		return nil
	}
	recs := make([]record, 0, len(seed))
	maxID := int32(-1)
	for _, e := range seed {
		if _, dup := st.dict[e.ID]; dup {
			return errors.New("lsm: duplicate seed id")
		}
		if _, dup := st.index[e.S]; dup {
			return errors.New("lsm: duplicate seed string")
		}
		st.dict[e.ID] = e.S
		st.index[e.S] = e.ID
		recs = append(recs, record{id: e.ID, s: e.S, live: true})
		if e.ID > maxID {
			maxID = e.ID
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	st.gen = 1
	st.segs = []*segment{newSegment(st.gen, 0, recs)}
	st.live = len(recs)
	st.alloc.Raise(maxID + 1)
	return nil
}

// recover rebuilds state from segment files plus WAL records, then
// checkpoints everything into a single fresh segment file and clears out the
// inputs. WAL records already covered by a segment (seq <= that segment's
// maxSeq) are skipped; replaying a suffix twice is harmless anyway because
// the logged operations are idempotent.
func (st *Store) recover(files []segFile, walRecs []walRec) error {
	state := make(map[int32]record)
	var covered, maxGen uint64
	for _, f := range files {
		for _, r := range f.recs {
			state[r.id] = r
		}
		if f.maxSeq > covered {
			covered = f.maxSeq
		}
		if f.gen > maxGen {
			maxGen = f.gen
		}
	}
	seq := covered
	for _, r := range walRecs {
		if r.seq <= covered {
			continue
		}
		state[r.id] = record{id: r.id, s: r.s, live: r.live}
		if r.seq > seq {
			seq = r.seq
		}
	}
	recs := make([]record, 0, len(state))
	maxID := int32(-1)
	for _, r := range state {
		recs = append(recs, r)
		if r.id > maxID {
			maxID = r.id
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	for _, r := range recs {
		st.dict[r.id] = r.s
		st.index[r.s] = r.id
		if r.live {
			st.live++
		}
	}
	st.seq = seq
	st.gen = maxGen + 1
	st.alloc.Raise(maxID + 1)
	ckpt := newSegment(st.gen, st.seq, recs)
	if err := writeSegmentFile(st.dir, ckpt); err != nil {
		return err
	}
	for _, f := range files {
		if f.gen != ckpt.gen {
			os.Remove(f.path)
		}
	}
	st.segs = []*segment{ckpt}
	return nil
}

// startCompactor launches the background merge goroutine.
func (st *Store) startCompactor() {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		for {
			select {
			case <-st.quit:
				return
			case <-st.compactCh:
				st.Compact()
				// Flushes during the merge may have pushed the count
				// back over the limit; loop until it is not.
				st.mu.RLock()
				again := len(st.segs) > st.maxSegments
				st.mu.RUnlock()
				if again {
					st.requestCompact()
				}
			}
		}
	}()
}

// requestCompact schedules a background compaction; a no-op when one is
// already pending.
func (st *Store) requestCompact() {
	select {
	case st.compactCh <- struct{}{}:
	default:
	}
}

// Close stops the compactor and releases the WAL. The delta is NOT flushed:
// with a Dir every mutation is already durable in the WAL (reopen replays
// it); without one the store's contents are discarded by design.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.mu.Unlock()
	close(st.quit)
	st.wg.Wait()
	if st.wal != nil {
		return st.wal.close()
	}
	return nil
}

// Insert adds s to the live dictionary. It returns the string's id and
// whether the store changed (false when s was already live). A string seen
// before — even one currently deleted — keeps its original id.
func (st *Store) Insert(s string) (int32, bool, error) {
	word, counts := scan.WordOf(s) // arithmetic over s alone: done before the lock, not under it
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, false, ErrClosed
	}
	id, known := st.index[s]
	if known && st.isLiveLocked(id) {
		return id, false, nil
	}
	if !known {
		id = st.alloc.alloc()
		st.index[s] = id
		st.dict[id] = s
	}
	st.seq++
	if st.wal != nil {
		//lint:ignore blockunderlock WAL-before-apply durability: the write lock must cover the append so no reader observes unlogged state; cost is one buffered-record write, bounded by walFlushEvery
		if err := st.wal.append(walRec{seq: st.seq, id: id, s: s, live: true}); err != nil {
			st.seq--
			return 0, false, err
		}
	}
	st.delta.setLive(deltaEntry{id: id, n: int32(len(s)), word: word, counts: counts})
	st.live++
	st.version.Add(1)
	if st.delta.size() >= st.flushLimit {
		//lint:ignore blockunderlock the segment file must be written before the WAL is reset and before any reader sees the rotated delta, so the flush stays under the write lock; amortized to every FlushLimit-th write
		if err := st.flushLocked(); err != nil {
			return id, true, err
		}
	}
	return id, true, nil
}

// Delete tombstones s. It returns whether the store changed (false when s
// was not live). The id<->string binding survives for a later re-insert.
func (st *Store) Delete(s string) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false, ErrClosed
	}
	id, known := st.index[s]
	if !known || !st.isLiveLocked(id) {
		return false, nil
	}
	st.seq++
	if st.wal != nil {
		//lint:ignore blockunderlock WAL-before-apply durability: the write lock must cover the append so no reader observes unlogged state; cost is one buffered-record write, bounded by walFlushEvery
		if err := st.wal.append(walRec{seq: st.seq, id: id, s: s, live: false}); err != nil {
			st.seq--
			return false, err
		}
	}
	st.delta.setDead(id, int32(len(s)))
	st.live--
	st.version.Add(1)
	if st.delta.size() >= st.flushLimit {
		//lint:ignore blockunderlock the segment file must be written before the WAL is reset and before any reader sees the rotated delta, so the flush stays under the write lock; amortized to every FlushLimit-th write
		if err := st.flushLocked(); err != nil {
			return true, err
		}
	}
	return true, nil
}

// isLiveLocked resolves id's liveness newest-wins: delta first, then
// segments newest to oldest. Must be called with st.mu held.
func (st *Store) isLiveLocked(id int32) bool {
	if live, ok := st.delta.ops[id]; ok {
		return live
	}
	for _, seg := range st.segs {
		if live, ok := seg.covers(id); ok {
			return live
		}
	}
	return false
}

// Flush freezes the current delta into a new segment.
func (st *Store) Flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	//lint:ignore blockunderlock an explicit Flush trades one segment write under the lock for the freeze being atomic with respect to concurrent searches; same contract as the size-triggered flush in Insert/Delete
	return st.flushLocked()
}

// flushLocked freezes the delta into a segment (and its file, when
// persistent). The segment file is written before the WAL is reset; a crash
// between the two replays records the segment already covers, which the
// sequence filter (and idempotence) absorbs. Must be called with st.mu held
// for writing.
func (st *Store) flushLocked() error {
	if st.delta.size() == 0 {
		return nil
	}
	recs := make([]record, 0, st.delta.size())
	for id, live := range st.delta.ops {
		recs = append(recs, record{id: id, s: st.dict[id], live: live})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	seg := newSegment(st.gen+1, st.seq, recs)
	if st.dir != "" {
		if err := writeSegmentFile(st.dir, seg); err != nil {
			return err
		}
		if err := st.wal.reset(); err != nil {
			return err
		}
	}
	st.gen++
	segs := make([]*segment, 0, len(st.segs)+1)
	segs = append(segs, seg)
	segs = append(segs, st.segs...)
	st.segs = segs
	st.delta = newDelta()
	st.flushes.Add(1)
	if len(st.segs) > st.maxSegments {
		st.requestCompact()
	}
	return nil
}

// hookOK consults the crash-injection hook; true means keep going.
func (st *Store) hookOK(stage string) bool {
	return st.hook == nil || st.hook(stage)
}

// Compact merges every current segment into one newest-wins generation.
// Searches and writes proceed concurrently: the merge works on an immutable
// snapshot, and only the final pointer swap takes the write lock. Flushes
// that land mid-merge simply stay in front of the merged segment (ordering
// is by maxSeq, so recovery agrees). Tombstones are retained so bindings
// survive.
func (st *Store) Compact() error {
	st.cmu.Lock()
	defer st.cmu.Unlock()

	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	inputs := st.segs
	if len(inputs) < 2 {
		st.mu.Unlock()
		return nil
	}
	st.gen++
	gen := st.gen
	st.mu.Unlock()

	merged := mergeSegments(inputs, gen)
	if !st.hookOK("merged") {
		return nil
	}
	if st.dir != "" {
		tmp, err := writeSegmentTmp(st.dir, merged)
		if err != nil {
			return err
		}
		if !st.hookOK("written") {
			return nil
		}
		if err := os.Rename(tmp, segPath(st.dir, merged.gen)); err != nil {
			return err
		}
		if !st.hookOK("renamed") {
			return nil
		}
		for i, in := range inputs {
			os.Remove(segPath(st.dir, in.gen))
			if i == 0 && !st.hookOK("removed-first") {
				return nil
			}
		}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	// Only flushes touched st.segs since the snapshot, and flushes only
	// prepend: the snapshot is still the suffix. Replace it.
	keep := len(st.segs) - len(inputs)
	if keep < 0 || st.segs[keep] != inputs[0] {
		// Cannot happen with a single serialized compactor; refuse to
		// corrupt state if it somehow does.
		return errors.New("lsm: segment list changed unexpectedly during compaction")
	}
	segs := make([]*segment, 0, keep+1)
	segs = append(segs, st.segs[:keep]...)
	segs = append(segs, merged)
	st.segs = segs
	st.compactions.Add(1)
	return nil
}

// Search implements core.Searcher.
func (st *Store) Search(q core.Query) []core.Match {
	ms, _ := st.SearchContext(context.Background(), q)
	return ms
}

// SearchContext answers q over the live dictionary: the delta and every
// segment's signature words are held against one probe, survivors go through
// its compiled pattern, suppression resolves each id newest-wins, and the
// ID-sorted runs are merged. Results are identical to a frozen scan over the
// current live strings (with the dictionary's ids). Honors ctx cancellation
// between strides.
func (st *Store) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	if q.K < 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr := scan.NewProbe(q.Text, q.K)
	segs, owned, all, err := st.snapshotScan(ctx, &pr)
	if err != nil {
		return nil, err
	}
	var ms []scan.Match // one segment's matches, reused by the next
	for i, seg := range segs {
		if ms, err = seg.words.Sweep(ctx, &pr, q.K, ms[:0]); err != nil {
			return nil, err
		}
		for _, m := range ms {
			// A match's slot-local ID indexes the segment's ascending ids,
			// so each bucket's run stays ID-ascending under the remap.
			m.ID = seg.ids[m.ID]
			if !owned.has(m.ID) && !shadowedByNewer(segs[:i], m.ID) {
				all = append(all, m)
			}
		}
	}
	if len(all) == 0 {
		return nil, nil
	}
	out := make([]core.Match, len(all))
	for i, m := range scan.MergeRuns(all) {
		out[i] = core.Match(m)
	}
	return out, nil
}

// snapshotScan captures, under one read lock, everything SearchContext needs
// atomically: the segment list, the ids the delta owns, and the delta scan
// itself. (A flush moving entries from delta to a new segment between those
// reads would otherwise drop or double-count ids.) The owned ids are the
// delta's own append-only list, not a copy. The lock is defer-released so a
// panicking comparison kernel cannot leak st.mu and wedge every writer
// behind a dead reader.
func (st *Store) snapshotScan(ctx context.Context, pr *scan.Probe) (segs []*segment, owned ownedSet, out []scan.Match, err error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out, err = st.scanDeltaLocked(ctx, pr)
	return st.segs, ownedSet{ids: st.delta.owned}, out, err
}

// shadowedByNewer reports whether any newer segment covers id (live or
// tombstoned) and therefore owns its newest version.
func shadowedByNewer(newer []*segment, id int32) bool {
	for _, seg := range newer {
		if _, ok := seg.covers(id); ok {
			return true
		}
	}
	return false
}

// Name implements core.Searcher.
func (st *Store) Name() string { return "lsm" }

// Len returns the live string count.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.live
}

// StringAt resolves an id to its bound string. Bindings are permanent, so a
// result id captured before a concurrent delete still resolves.
func (st *Store) StringAt(id int32) (string, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.dict[id]
	return s, ok
}

// Version returns the mutation counter: it advances on every effective
// insert or delete, and is what callers fold into cache version strings.
func (st *Store) Version() uint64 { return st.version.Load() }

// LiveStrings returns the current live dictionary as (ids, strings), both
// ascending by id — the frozen-oracle input used by the test harness.
func (st *Store) LiveStrings() ([]int32, []string) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ids := make([]int32, 0, st.live)
	for id := range st.dict {
		if st.isLiveLocked(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	strs := make([]string, len(ids))
	for i, id := range ids {
		strs[i] = st.dict[id]
	}
	return ids, strs
}

// Stats is a point-in-time snapshot of the store's shape.
type Stats struct {
	Live           int    // live strings
	Known          int    // bindings ever made (live + tombstoned)
	Tombstones     int    // dead bindings
	DeltaEntries   int    // unflushed mutations
	Segments       int    // immutable segments
	SegmentStrings int    // live strings across segments
	ArenaBytes     int    // packed bytes across segment arenas
	Seq            uint64 // newest WAL sequence
	Generation     uint64 // mutation counter (cache version source)
	Flushes        uint64
	Compactions    uint64
	Persistent     bool
}

// Stats returns the current snapshot.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := Stats{
		Live:         st.live,
		Known:        len(st.dict),
		Tombstones:   len(st.dict) - st.live,
		DeltaEntries: st.delta.size(),
		Segments:     len(st.segs),
		Seq:          st.seq,
		Generation:   st.version.Load(),
		Flushes:      st.flushes.Load(),
		Compactions:  st.compactions.Load(),
		Persistent:   st.dir != "",
	}
	for _, seg := range st.segs {
		s.SegmentStrings += len(seg.ids)
		s.ArenaBytes += seg.words.Arena().Bytes()
	}
	return s
}
