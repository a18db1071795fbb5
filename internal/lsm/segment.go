package lsm

import (
	"slices"
	"sort"

	"simsearch/internal/scan"
)

// record is one (id, string, liveness) triple — the unit of flushing,
// compaction, and serialization. The id<->string binding is permanent; only
// liveness changes over a record's lifetime.
type record struct {
	id   int32
	s    string
	live bool
}

// segment is an immutable generation of the store: the newest-wins state of
// every id it covers, with the live strings packed into a scan arena under
// one signature word each. All fields are read-only after newSegment
// returns, so searches and the compactor share segments without locks.
type segment struct {
	gen    uint64 // file-naming generation (unique, monotonic)
	maxSeq uint64 // newest WAL sequence folded into this segment
	// Live records, ascending by id; strs is parallel to ids and is the
	// arena's input, so an arena match's slot-local ID indexes both.
	ids  []int32
	strs []string
	// Tombstones, ascending by id. The strings ride along so compaction
	// and serialization never need the store's dictionary.
	dead     []int32
	deadStrs []string
	// words holds the arena of strs — every length bucket ordered by its
	// words — one signature word per slot and the block summaries over
	// them, the kind chosen from this segment's own bytes. Derived data:
	// segment files and the WAL hold records only, and every newSegment —
	// flush, compaction, recovery — packs and computes them again.
	words *scan.Words
}

// newSegment builds a segment from records sorted by ascending id.
func newSegment(gen, maxSeq uint64, recs []record) *segment {
	seg := &segment{gen: gen, maxSeq: maxSeq}
	for _, r := range recs {
		if r.live {
			seg.ids = append(seg.ids, r.id)
			seg.strs = append(seg.strs, r.s)
		} else {
			seg.dead = append(seg.dead, r.id)
			seg.deadStrs = append(seg.deadStrs, r.s)
		}
	}
	seg.words = scan.NewWords(seg.strs)
	return seg
}

// covers reports whether the segment holds a version of id — so that it
// shadows every older segment — and whether that version is live. Both id
// lists are ascending.
func (seg *segment) covers(id int32) (live, ok bool) {
	if _, ok := slices.BinarySearch(seg.ids, id); ok {
		return true, true
	}
	_, ok = slices.BinarySearch(seg.dead, id)
	return false, ok
}

// records returns every record the segment covers (live and dead), ascending
// by id — the input form for compaction merges and serialization.
func (seg *segment) records() []record {
	out := make([]record, 0, len(seg.ids)+len(seg.dead))
	i, j := 0, 0
	for i < len(seg.ids) && j < len(seg.dead) {
		if seg.ids[i] < seg.dead[j] {
			out = append(out, record{id: seg.ids[i], s: seg.strs[i], live: true})
			i++
		} else {
			out = append(out, record{id: seg.dead[j], s: seg.deadStrs[j], live: false})
			j++
		}
	}
	for ; i < len(seg.ids); i++ {
		out = append(out, record{id: seg.ids[i], s: seg.strs[i], live: true})
	}
	for ; j < len(seg.dead); j++ {
		out = append(out, record{id: seg.dead[j], s: seg.deadStrs[j], live: false})
	}
	return out
}

// mergeSegments folds the given segments (newest first, the in-memory order)
// into one newest-wins segment. Tombstones are kept: the id<->string binding
// must survive so a later re-insert revives the original id. The merged
// segment carries the newest input's maxSeq — ordering on recovery is by
// maxSeq, so segments flushed while the merge ran stay newer — and a fresh
// gen for file naming.
func mergeSegments(inputs []*segment, gen uint64) *segment {
	state := make(map[int32]record)
	for i := len(inputs) - 1; i >= 0; i-- {
		for _, r := range inputs[i].records() {
			state[r.id] = r
		}
	}
	recs := make([]record, 0, len(state))
	for _, r := range state {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].id < recs[b].id })
	return newSegment(gen, inputs[0].maxSeq, recs)
}
