package lsm

import (
	"sort"

	"simsearch/internal/core"
	"simsearch/internal/edit"
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
	ops   map[int32]bool
	byLen []deltaEntry // live entries, sorted by (n, id)
}

// deltaEntry is one live delta string, identified by id with its byte length
// cached for the length filter (the bytes themselves live in the dictionary).
type deltaEntry struct {
	id int32
	n  int32
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

// setLive records id (a string of n bytes) as inserted. The caller guarantees
// id is not currently live in the delta.
func (d *delta) setLive(id, n int32) {
	d.ops[id] = true
	i := d.find(n, id)
	d.byLen = append(d.byLen, deltaEntry{})
	copy(d.byLen[i+1:], d.byLen[i:])
	d.byLen[i] = deltaEntry{id: id, n: n}
}

// setDead records id (a string of n bytes) as deleted. If the delta held the
// live insert, the byLen view entry is removed.
func (d *delta) setDead(id, n int32) {
	if live, ok := d.ops[id]; ok && live {
		i := d.find(n, id)
		d.byLen = append(d.byLen[:i], d.byLen[i+1:]...)
	}
	d.ops[id] = false
}

// deltaStride is how many delta strings are compared between two cancellation
// polls. The delta is bounded by the flush limit, so this mirrors the arena's
// ctxStride more for symmetry than for latency.
const deltaStride = 1024

// scanDeltaLocked streams the delta's length-window entries through the
// compiled pattern. Must be called with st.mu held (read or write): it reads
// the delta view and the dictionary. Returns ID-sorted matches; ok=false when
// cancelled.
func (st *Store) scanDeltaLocked(p *edit.MyersPattern, k int, cancel <-chan struct{}) ([]core.Match, bool) {
	d := st.delta
	if len(d.byLen) == 0 {
		return nil, true
	}
	lo := int32(p.Len() - k)
	if lo < 0 {
		lo = 0
	}
	hi := int32(p.Len() + k)
	var ms []core.Match
	var pairs uint64
	var scratch edit.MyersScratch
	for i := d.find(lo, 0); i < len(d.byLen); i++ {
		e := d.byLen[i]
		if e.n > hi {
			break
		}
		if cancel != nil && pairs%deltaStride == deltaStride-1 {
			select {
			case <-cancel:
				return nil, false
			default:
			}
		}
		pairs++
		if k == 0 {
			// Distance 0 is string equality; no kernel to enter.
			if st.dict[e.id] == p.Text() {
				ms = append(ms, core.Match{ID: e.id})
			}
			continue
		}
		if dist, ok := p.BoundedDistance(st.dict[e.id], k, &scratch); ok {
			ms = append(ms, core.Match{ID: e.id, Dist: dist})
		}
	}
	// byLen order is (length, id): the matches are a concatenation of
	// ID-ascending runs, one per length bucket.
	return mergeRuns(ms), true
}
