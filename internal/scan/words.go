// The two signature words and the sweep over them: one precomputed uint64 per
// arena slot, read before any candidate byte is. The cascade engine
// (internal/cascade) and the live store's segments (internal/lsm) both run
// this sweep; the bare BitParallel rung builds no words and reads none.
package scan

import (
	"bytes"
	"context"
	"math/bits"

	"simsearch/internal/edit"
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

// The count word of an all-DNA string: five fields of fieldBits bits, one per
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

// allDNA reports whether every byte of s is A, C, G, N or T — the strings
// whose words hold symbol counts. The empty string is one.
func allDNA[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if dnaField[s[i]] == dnaFields {
			return false
		}
	}
	return true
}

// countWord packs the five symbol counts of s. Bytes outside the alphabet —
// a query may hold them, an all-DNA string does not — are not counted.
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

// WordOf returns the word of a string that sits in no arena (an entry of the
// live store's delta) and its kind, chosen from the string's own bytes:
// symbol counts when all of them are A, C, G, N or T, occurrence bits
// otherwise.
func WordOf(s string) (word uint64, counts bool) {
	if allDNA(s) {
		return countWord(s), true
	}
	return signature(s), false
}

// Probe is one query prepared for the words: its compiled pattern and its
// own word of either kind, computed once however many Words and loose words
// the query is held against. It serves one goroutine. Visited and Kept
// accumulate, over every Sweep, the slots of the length windows and those
// whose word survived (= kernel calls, or byte compares at k = 0).
type Probe struct {
	text    string
	k       int
	p       *edit.MyersPattern // nil at k = 0: distance 0 is byte equality, no kernel to enter
	scratch *edit.MyersScratch
	sig     uint64 // the query's occurrence bits
	cnt     uint64 // the query's symbol counts

	Visited, Kept uint64
}

// NewProbe compiles q for threshold k >= 0.
func NewProbe(q string, k int) Probe {
	pr := Probe{text: q, k: k, sig: signature(q), cnt: countWord(q)}
	if k > 0 {
		pr.p, pr.scratch = edit.CompileMyers(q), new(edit.MyersScratch)
	}
	return pr
}

// Lengths returns the length window [lo, hi] outside which no string is
// within k of the query.
func (pr *Probe) Lengths() (lo, hi int) {
	return max(len(pr.text)-pr.k, 0), len(pr.text) + pr.k
}

// Rejects reports whether a string with this word (see WordOf) is certainly
// farther than k from the query.
func (pr *Probe) Rejects(word uint64, counts bool) bool {
	if counts {
		return countReject(pr.cnt, word, pr.k)
	}
	return sigReject(pr.sig, word, pr.k)
}

// Within returns the query's distance to s when it is at most k.
func (pr *Probe) Within(s string) (int, bool) {
	if pr.k == 0 {
		return 0, s == pr.text
	}
	return pr.p.BoundedDistance(s, pr.k, pr.scratch)
}

// Words is one signature word per slot of an arena. What the word holds is
// chosen once, at build time, from the arena's bytes: symbol counts when
// every one of them is A, C, G, N or T, occurrence bits otherwise. The words
// are derived data: whoever persists an arena rebuilds them from it.
type Words struct {
	ar     *Arena
	sigs   []uint64 // sigs[s] = word of slot s
	counts bool     // the words are symbol counts (all-DNA arena), not occurrence bits
}

// NewWords computes the words of an arena the caller may share with other
// engines; it costs 8 bytes per string.
func NewWords(ar *Arena) *Words {
	w := &Words{ar: ar, counts: allDNA(ar.buf), sigs: make([]uint64, ar.Len())}
	for s := range w.sigs {
		if xb := ar.SlotBytes(int32(s)); w.counts {
			w.sigs[s] = countWord(xb)
		} else {
			w.sigs[s] = signature(xb)
		}
	}
	return w
}

// Arena returns the arena the words were computed over.
func (w *Words) Arena() *Arena { return w.ar }

// Counts reports the kind of the words: symbol counts (true) or occurrence
// bits.
func (w *Words) Counts() bool { return w.counts }

// Sweep appends to dst every slot within the probe's k of its query, as
// matches carrying the arena's IDs in slot order: a concatenation of
// ID-ascending runs, one per length bucket, for MergeRuns to fold. A caller
// sweeping several arenas for one query reuses dst, so an arena without a
// match costs no allocation. slack is how far the
// words may differ on either side before a slot is dropped unread: the
// probe's k, or math.MaxInt to send every slot to the kernel (the cascade's
// ablation).
//
// The length window is a slot range; the sweep walks its words in blocks of
// ctxStride, polling ctx once per block, collects the block's survivors and
// only then looks up their bytes and hands them to the kernel (byte equality
// at k = 0). Which reject function the sweep applies is decided per block,
// not per slot: the occurrence-bit sweep is a nanosecond per slot and a
// branch in it shows. At k = 0 both words reject exactly when they differ,
// so both kinds share that sweep. The probe's counters are flushed on every
// exit path.
func (w *Words) Sweep(ctx context.Context, pr *Probe, slack int, dst []Match) ([]Match, error) {
	k := pr.k
	lo, hi := w.ar.SlotRange(pr.Lengths())
	if lo == hi {
		return dst, nil
	}
	var visited, kept uint64
	defer func() {
		pr.Visited += visited
		pr.Kept += kept
	}()
	sq := pr.sig
	if w.counts {
		sq = pr.cnt
	}
	var exact []byte // the query's bytes at k = 0
	if k == 0 {
		exact = []byte(pr.text)
	}
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
			for i, sx := range w.sigs[blk:end] {
				if sx == sq {
					surv[n] = int32(i)
					n++
				}
			}
		case w.counts:
			for i, sx := range w.sigs[blk:end] {
				if !countReject(sq, sx, slack) {
					surv[n] = int32(i)
					n++
				}
			}
		default:
			for i, sx := range w.sigs[blk:end] {
				if !sigReject(sq, sx, slack) {
					surv[n] = int32(i)
					n++
				}
			}
		}
		kept += uint64(n)
		for _, i := range surv[0:n] {
			s := blk + i
			xb := w.ar.SlotBytes(s)
			if k == 0 {
				if bytes.Equal(xb, exact) {
					dst = append(dst, Match{ID: w.ar.ids[s]})
				}
				continue
			}
			if d, ok := pr.p.BoundedDistanceBytes(xb, k, pr.scratch); ok {
				dst = append(dst, Match{ID: w.ar.ids[s], Dist: d})
			}
		}
	}
	return dst, nil
}
