package lsm

import (
	"slices"

	"simsearch/internal/scan"
)

// delta is the small mutable front of the store: the set of (id, op) pairs
// written since the last flush. Live inserts additionally sit in live, which
// lays their strings out for the same probe a segment's sweep uses and emits
// the same ID-ascending runs per length bucket.
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
	live  scan.Loose // the live inserts' strings, each copied once
}

func newDelta() *delta {
	return &delta{ops: make(map[int32]bool)}
}

func (d *delta) size() int { return len(d.ops) }

// set records id's newest version, noting the id as owned the first time.
func (d *delta) set(id int32, live bool) {
	if _, ok := d.ops[id]; !ok {
		d.owned = append(d.owned, id)
	}
	d.ops[id] = live
}

// setLive records s as inserted under id. The caller guarantees id is not
// currently live in the delta.
func (d *delta) setLive(id int32, s string) {
	d.set(id, true)
	d.live.Add(id, s)
}

// setDead records id (a string of n bytes) as deleted. If the delta held the
// live insert, its string leaves live.
func (d *delta) setDead(id int32, n int) {
	if d.ops[id] {
		d.live.Remove(id, n)
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
