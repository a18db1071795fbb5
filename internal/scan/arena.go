// Arena data layout and run merge: what the signature words of words.go are
// computed over and the one sweep reads.
//
// All dataset strings are packed into one contiguous byte buffer, bucketed by
// length with original IDs preserved inside each bucket. The paper's length
// filter then degenerates to selecting a bucket range, and the scan itself is
// a single linear sweep over the packed bytes — no pointer chasing through
// string headers, no cache miss per candidate.
package scan

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"simsearch/internal/edit"
)

// Arena is the packed, length-bucketed dataset layout: immutable once built.
// NewWords packs it, and the cascade (core.Cascade) and the live store's
// segments (internal/lsm) sweep it through one
// signature word per slot (Words). Match IDs are indices into the input it
// was packed from.
//
// Slots are ordered by length first: a counting sort places every length
// bucket in one slot range, and inside a bucket every slot has the same
// stride, so no per-slot offset is stored: slot s of length l holds
// buf[lenOff[l]+(s-lenStart[l])*l:][:l]. Inside a bucket the order is
// NewWords', fixed when the arena is built and never changed after: by a key
// of the slot's word, so that slots a query's word rules out sit together
// and are skipped a block at a time. Every consumer reads a match's ID off
// ids and restores ID order with MergeRuns, so the order inside a bucket
// decides speed alone.
type Arena struct {
	buf []byte
	ids []int32 // slot -> original dataset ID
	// lenStart[l] is the first slot whose string is at least l bytes long;
	// lenStart[maxLen+1] == len(ids). The bucket of length l spans
	// [lenStart[l], lenStart[l+1]).
	lenStart []int32
	lenOff   []int32 // lenOff[l] is the offset in buf of bucket l's first byte
	maxLen   int
}

// newLayout sizes an arena for data and lays out its length buckets
// (histogram, prefix sums); no string is placed yet. The strings will be
// copied, so the caller may discard the slice afterwards. Offsets are int32
// (half the footprint of int64 on the hot path); datasets beyond 2 GiB of
// string bytes are out of scope for the in-memory engine and rejected loudly
// rather than corrupted silently.
func newLayout(data []string) *Arena {
	total := 0
	maxLen := 0
	for _, s := range data {
		total += len(s)
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("scan: arena layout supports at most %d string bytes, got %d", math.MaxInt32, total))
	}
	a := &Arena{
		buf:      make([]byte, total, total+edit.LanePad),
		ids:      make([]int32, len(data)),
		lenStart: make([]int32, maxLen+2),
		lenOff:   make([]int32, maxLen+1),
		maxLen:   maxLen,
	}
	counts := make([]int32, maxLen+1)
	for _, s := range data {
		counts[len(s)]++
	}
	var slot, off int32
	for l := 0; l <= maxLen; l++ {
		a.lenStart[l], a.lenOff[l] = slot, off
		slot += counts[l]
		off += counts[l] * int32(l)
	}
	a.lenStart[maxLen+1] = slot
	return a
}

// bucketCursors returns, per length, the next free slot of its bucket: the
// state of a stable placement pass over the input in ID order.
func (a *Arena) bucketCursors() []int32 {
	return append([]int32(nil), a.lenStart[:a.maxLen+1]...)
}

// place copies string id into slot sl of its length bucket; build time only.
func (a *Arena) place(sl, id int32, s string) {
	a.ids[sl] = id
	copy(a.buf[a.lenOff[len(s)]+(sl-a.lenStart[len(s)])*int32(len(s)):], s)
}

// Len returns the number of packed strings.
func (a *Arena) Len() int { return len(a.ids) }

// Bytes returns the packed buffer size.
func (a *Arena) Bytes() int { return len(a.buf) }

// slotRange returns the half-open slot window [lo, hi) holding strings with
// length in [minLen, maxLen], clamped to the dataset's length range: the
// paper's length filter as an O(1) bucket lookup.
func (a *Arena) slotRange(minLen, maxLen int) (int32, int32) {
	if minLen < 0 {
		minLen = 0
	}
	if maxLen > a.maxLen {
		maxLen = a.maxLen
	}
	if minLen > maxLen {
		return 0, 0
	}
	return a.lenStart[minLen], a.lenStart[maxLen+1]
}

// slotBytesFrom returns the packed bytes of slot s without copying; they
// alias the arena buffer and must not be mutated. The caller asks for slots
// in ascending order, as the word sweep does: l is the length bucket of the
// slot it asked for last (any bucket not past s's will do), advanced here to
// s's own and returned with the bytes, so the buckets are walked once per
// sweep instead of searched once per slot.
func (a *Arena) slotBytesFrom(s int32, l int) ([]byte, int) {
	off, l := a.slotFrom(s, l)
	return a.buf[off : off+l], l
}

// slotFrom is slotBytesFrom's lookup: the offset in the buffer of slot s's
// bytes and their length, s's bucket.
func (a *Arena) slotFrom(s int32, l int) (off, length int) {
	for s >= a.lenStart[l+1] {
		l++
	}
	return int(a.lenOff[l]) + int(s-a.lenStart[l])*l, l
}

// Buckets returns the number of distinct, non-empty length buckets.
func (a *Arena) Buckets() int {
	n := 0
	for l := 0; l <= a.maxLen; l++ {
		if a.lenStart[l+1] > a.lenStart[l] {
			n++
		}
	}
	return n
}

// cmpMatchID orders matches by ID. IDs are unique within one result, so it
// is a total order and the sort below needs no stability.
func cmpMatchID(a, b Match) int { return cmp.Compare(a.ID, b.ID) }

// MergeRuns sorts a match slice that is a concatenation of ID-ascending runs
// by ID: Words.Sweep returns matches in slot order, and the cascade, the
// live store and the executors restore ID order with it. Run boundaries are
// exactly the ID descents: IDs are unique and each run is strictly
// ascending. What the runs look like depends on who packed the slots. A live
// executor's concatenation of its stores' results yields one long run per
// store, and those are merged bottom-up, O(n log r) for r runs, through one
// buffer. A word-ordered arena yields matches in word order inside a bucket
// — a run per match, all but, with duplicates of one string the exception
// (equal words, ID tie-break) — and there are few of them: where runs
// average under shortRun matches the slice is sorted in place, which
// allocates nothing. The input slice is consumed; the returned slice is
// ID-sorted and may alias either the input or the merge buffer.
func MergeRuns(ms []Match) []Match {
	runs := 1
	for i := 1; i < len(ms); i++ {
		if ms[i].ID <= ms[i-1].ID {
			runs++
		}
	}
	if runs == 1 {
		return ms
	}
	if runs*shortRun > len(ms) {
		slices.SortFunc(ms, cmpMatchID)
		return ms
	}
	starts := make([]int, 1, runs)
	for i := 1; i < len(ms); i++ {
		if ms[i].ID <= ms[i-1].ID {
			starts = append(starts, i)
		}
	}
	buf := make([]Match, len(ms))
	src, dst := ms, buf
	for len(starts) > 1 {
		// The merged runs' starts overwrite the front of starts: entry i/2 is
		// written after entries i and i+1 were read.
		for i := 0; i < len(starts); i += 2 {
			lo := starts[i]
			if i+1 == len(starts) {
				copy(dst[lo:], src[lo:])
			} else {
				mid, hi := starts[i+1], len(src)
				if i+2 < len(starts) {
					hi = starts[i+2]
				}
				mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi])
			}
			starts[i/2] = lo
		}
		starts = starts[:(len(starts)+1)/2]
		src, dst = dst, src
	}
	return src
}

// shortRun is the mean run length below which MergeRuns sorts in place
// instead of merging.
const shortRun = 8

// mergeInto merges two ID-ascending runs into out (len(out) == len(a)+len(b)).
func mergeInto(out, a, b []Match) {
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i].ID < b[j].ID {
			out[o] = a[i]
			i++
		} else {
			out[o] = b[j]
			j++
		}
		o++
	}
	copy(out[o:], a[i:])
	copy(out[o+len(a)-i:], b[j:])
}
