package lsm

import (
	"context"
	"slices"
	"sort"

	"simsearch/internal/scan"
)

// delta is the small mutable front of the store: the set of (id, op) pairs
// written since the last flush. Live inserts additionally appear in byLen, a
// view sorted by (length, id) that mirrors the arena's slot order, so the
// delta scan applies the same length filter and emits the same ID-ascending
// runs per length bucket as a segment scan.
type delta struct {
	// ops maps id -> live. A true entry is an insert not yet flushed; a
	// false entry is a tombstone not yet flushed. Presence alone means the
	// delta owns the newest version of that id and shadows every segment.
	ops map[int32]bool
	// owned lists the keys of ops in arrival order. An id only ever joins a
	// delta (a delete of an owned id keeps it owned), so the slice is
	// append-only and a header read under the store's read lock stays a
	// consistent snapshot of ownership after the lock is gone: later
	// appends land past its length or in a new backing array.
	owned []int32
	byLen []deltaEntry // live entries, sorted by (n, id)
}

// deltaEntry is one live delta string, identified by id, with what rejects it
// unread: its byte length for the length filter and its signature word (see
// scan.WordOf). The bytes themselves live in the dictionary.
type deltaEntry struct {
	id, n  int32
	word   uint64
	counts bool // the word holds symbol counts, not occurrence bits
}

func newDelta() *delta {
	return &delta{ops: make(map[int32]bool)}
}

func (d *delta) size() int { return len(d.ops) }

// find returns the byLen insertion point for (n, id).
func (d *delta) find(n, id int32) int {
	return sort.Search(len(d.byLen), func(i int) bool {
		e := d.byLen[i]
		if e.n != n {
			return e.n >= n
		}
		return e.id >= id
	})
}

// set records id's newest version, noting the id as owned the first time.
func (d *delta) set(id int32, live bool) {
	if _, ok := d.ops[id]; !ok {
		d.owned = append(d.owned, id)
	}
	d.ops[id] = live
}

// setLive records e as inserted. The caller guarantees e.id is not currently
// live in the delta.
func (d *delta) setLive(e deltaEntry) {
	d.set(e.id, true)
	d.byLen = slices.Insert(d.byLen, d.find(e.n, e.id), e)
}

// setDead records id (a string of n bytes) as deleted. If the delta held the
// live insert, the byLen view entry is removed.
func (d *delta) setDead(id, n int32) {
	if d.ops[id] {
		i := d.find(n, id)
		d.byLen = append(d.byLen[:i], d.byLen[i+1:]...)
	}
	d.set(id, false)
}

// ownedSet answers whether a snapshot's delta owned an id. A query asks it
// once per segment match — a handful — so it scans the captured list; only a
// query that has asked ownedSetAfter times pays for a set, which bounds
// thousands of matches against a full delta at one map build.
type ownedSet struct {
	ids    []int32
	probes int
	set    map[int32]struct{}
}

const ownedSetAfter = 64

func (o *ownedSet) has(id int32) bool {
	if o.set == nil {
		if o.probes++; o.probes <= ownedSetAfter {
			return slices.Contains(o.ids, id)
		}
		o.set = make(map[int32]struct{}, len(o.ids))
		for _, id := range o.ids {
			o.set[id] = struct{}{}
		}
	}
	_, ok := o.set[id]
	return ok
}

// deltaStride is how many delta entries lie between two cancellation polls.
// The delta is bounded by the flush limit, so this mirrors the arena's
// ctxStride more for symmetry than for latency.
const deltaStride = 1024

// scanDeltaLocked holds the delta's length-window entries against the probe:
// an entry's word rejects it before its string is looked up, and the probe
// queues the rest for the kernel, flushed once at the end. Must be called
// with st.mu held (read or write): it reads the delta view and the
// dictionary. Returns ID-sorted matches, or ctx's error once it is cancelled.
func (st *Store) scanDeltaLocked(ctx context.Context, pr *scan.Probe) ([]scan.Match, error) {
	d := st.delta
	lo, hi := pr.Lengths()
	var ms []scan.Match
	for i := d.find(int32(lo), 0); i < len(d.byLen); i++ {
		e := d.byLen[i]
		if int(e.n) > hi {
			break
		}
		if i%deltaStride == deltaStride-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if pr.Rejects(e.word, e.counts) {
			continue
		}
		ms = pr.Queue(st.dict[e.id], e.id, ms)
	}
	// byLen order is (length, id), and the matches come in queue order: a
	// concatenation of ID-ascending runs, one per length bucket.
	return scan.MergeRuns(pr.Flush(ms)), nil
}
