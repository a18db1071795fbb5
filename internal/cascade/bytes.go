// The two signature words and the sweep over them. The sweep reads only the
// signature slab; the bytes of a candidate are touched when its word
// survives.
package cascade

import (
	"bytes"
	"context"
	"math"
	"math/bits"

	"simsearch/internal/edit"
	"simsearch/internal/scan"
)

// signature folds a string into one word of counted occurrences: the byte
// value picks one of 32 buckets (b & 31), bit i says bucket i occurs at
// least once, bit 32+i at least twice.
//
// The filter built on it (sigReject) is sound. One edit operation lowers at
// most one bucket's count by one and raises at most one by one, and a count
// moving by one flips at most one of that bucket's two unary bits, so strings
// within distance k differ in at most k bits on each side:
// popcount(a &^ b) <= k and popcount(b &^ a) <= k. Folding 256 byte values
// into 32 buckets and saturating the count at 2 only merge or drop bits; they
// can hide a difference, never invent one.
func signature[T string | []byte](s T) uint64 {
	var sig uint64
	for i := 0; i < len(s); i++ {
		once := uint64(1) << (s[i] & 31)
		sig |= once | (sig&once)<<32
	}
	return sig
}

// sigReject reports whether two signatures differ in more than slack bits on
// either side, which no pair of strings within slack edits can.
func sigReject(a, b uint64, slack int) bool {
	return bits.OnesCount64(a&^b) > slack || bits.OnesCount64(b&^a) > slack
}

// The count word of an all-DNA arena: five fields of fieldBits bits, one per
// symbol in the order A, C, G, N, T, each holding how often the symbol
// occurs, saturating at fieldMax. fieldMax is a fifth of what a field can
// hold, so five surpluses still sum inside one field (see surplus), and it
// leaves every field's top bit clear for the subtraction there to borrow
// from.
const (
	dnaFields   = 5
	fieldBits   = 12
	fieldMax    = (1<<fieldBits - 1) / dnaFields
	fieldOnes   = 1 | 1<<fieldBits | 1<<(2*fieldBits) | 1<<(3*fieldBits) | 1<<(4*fieldBits)
	fieldGuards = fieldOnes << (fieldBits - 1)
)

// dnaField maps a byte to its field of the count word; dnaFields for every
// byte that has none.
var dnaField = func() (t [256]uint8) {
	for b := range t {
		t[b] = dnaFields
	}
	for f, b := range "ACGNT" {
		t[b] = uint8(f)
	}
	return t
}()

// allDNA reports whether every byte of the arena is A, C, G, N or T — the
// corpora whose words hold symbol counts. An arena without bytes is one.
func allDNA(ar *scan.Arena) bool {
	for s := int32(0); s < int32(ar.Len()); s++ {
		for _, b := range ar.SlotBytes(s) {
			if dnaField[b] == dnaFields {
				return false
			}
		}
	}
	return true
}

// countWord packs the five symbol counts of s. Bytes outside the alphabet —
// a query may hold them, the arena does not — are not counted.
//
// The filter built on it (countReject) is the frequency-vector bound: one
// edit operation lowers at most one symbol's count by one and raises at most
// one by one, so strings within distance k have at most k occurrences in
// surplus on either side, summed over the symbols. Saturating a count
// shrinks the difference of two counts or leaves it alone, and a byte that
// is not counted drops its term from the sums; both can hide a difference,
// never invent one.
func countWord[T string | []byte](s T) uint64 {
	var n [dnaFields + 1]uint64 // the last entry takes the uncounted bytes
	for i := 0; i < len(s); i++ {
		n[dnaField[s[i]]]++
	}
	var w uint64
	for f := 0; f < dnaFields; f++ {
		w |= min(n[f], fieldMax) << (fieldBits * f)
	}
	return w
}

// surplus sums, over the five fields, how far a's count exceeds b's, all
// fields at once. Setting a field's guard bit before subtracting keeps the
// borrow inside the field and leaves the bit set exactly where a's count is
// at least b's; those fields keep their difference, the others are cleared,
// and one multiplication adds the five up in the top field (the four bits
// above it collect partial sums and are dropped).
func surplus(a, b uint64) int {
	d := (a | fieldGuards) - b
	g := d & fieldGuards
	return int((d & (g - g>>(fieldBits-1))) * fieldOnes >> (4 * fieldBits) & (1<<fieldBits - 1))
}

// countReject reports whether either word has more than slack occurrences in
// surplus over the other, which no pair of strings within slack edits has.
func countReject(a, b uint64, slack int) bool {
	return surplus(a, b) > slack || surplus(b, a) > slack
}

// searchBytes runs the cascade. The length window is a slot range; the sweep
// walks its signatures in blocks of ctxStride, polling ctx once per block,
// collects the block's survivors and only then looks up their bytes and
// hands them to the kernel (byte equality at k = 0). Which reject function
// the sweep applies is decided per block, not per slot: the occurrence-bit
// sweep is a nanosecond per slot and a branch in it shows. At k = 0 both
// words reject exactly when they differ, so both kinds share that sweep.
// Stage counters are flushed on every exit path.
func (e *Engine) searchBytes(ctx context.Context, q string, k int) ([]Match, error) {
	lo, hi := e.ar.SlotRange(len(q)-k, len(q)+k)
	var visited, kept uint64
	defer func() {
		e.candidates.Add(visited)
		e.survivors.Add(kept)
		if e.comps != nil {
			e.comps.Add(kept)
		}
	}()
	if lo == hi {
		return nil, nil
	}
	var sq uint64
	if e.counts {
		sq = countWord(q)
	} else {
		sq = signature(q)
	}
	slack := k // what the two words may differ by on either side
	if e.noFreq {
		slack = math.MaxInt
	}
	var p *edit.MyersPattern
	var scratch *edit.MyersScratch
	var exact []byte // the query's bytes when k = 0: distance 0 is byte equality, no kernel to enter
	if k == 0 {
		exact = []byte(q)
	} else {
		p, scratch = edit.CompileMyers(q), new(edit.MyersScratch)
	}
	ms := make([]Match, 0, 16)
	var surv [ctxStride]int32 // one block's survivors, as offsets into the block
	for blk := lo; blk < hi; blk += ctxStride {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(blk+ctxStride, hi)
		visited += uint64(end - blk)
		n := 0
		switch {
		case slack == 0:
			for i, sx := range e.sigs[blk:end] {
				if sx == sq {
					surv[n] = int32(i)
					n++
				}
			}
		case e.counts:
			for i, sx := range e.sigs[blk:end] {
				if !countReject(sq, sx, slack) {
					surv[n] = int32(i)
					n++
				}
			}
		default:
			for i, sx := range e.sigs[blk:end] {
				if !sigReject(sq, sx, slack) {
					surv[n] = int32(i)
					n++
				}
			}
		}
		kept += uint64(n)
		for _, i := range surv[0:n] {
			s := blk + i
			xb := e.ar.SlotBytes(s)
			if k == 0 {
				if bytes.Equal(xb, exact) {
					ms = append(ms, Match{ID: e.ar.SlotID(s)})
				}
				continue
			}
			if d, ok := p.BoundedDistanceBytes(xb, k, scratch); ok {
				ms = append(ms, Match{ID: e.ar.SlotID(s), Dist: d})
			}
		}
	}
	e.matches.Add(uint64(len(ms)))
	return scan.MergeRuns(ms), nil
}
