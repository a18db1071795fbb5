// The signature words and the sweep over them: one precomputed uint64 per
// arena slot — two on an all-DNA arena, the second read only for slots the
// first lets through — read before any candidate byte is. The cascade engine
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

// The gram word of an all-DNA string: sixteen fields of gramBits bits, one
// per ordered pair of letters over A, C, G, T (field 4*first + second), each
// holding how often the pair occurs at adjacent positions, saturating at
// gramMax. A pair touching N — or, in a query, any other byte — is not
// counted.
const (
	gramFields = 16
	gramBits   = 4
	gramMax    = 1<<gramBits - 1
	// Even and odd fields are summed apart, each widened to a byte lane
	// whose top bit guards the subtraction (see gramSurplus).
	gramLanes  = 0x0f0f0f0f0f0f0f0f
	gramGuards = 0x8080808080808080
	gramOnes   = 0x0101010101010101
	// gramCeiling is the largest surplus two gram words can show: every
	// field saturated on one side and empty on the other. A bound at or past
	// it rejects nothing.
	gramCeiling = gramFields * gramMax
)

// gramCode maps A, C, G, T to 0..3 and every other byte to 4.
var gramCode = func() (t [256]uint8) {
	for b := range t {
		t[b] = 4
	}
	for c, b := range "ACGT" {
		t[b] = uint8(c)
	}
	return t
}()

// gramWord packs the sixteen dinucleotide counts of s.
//
// The filter built on it (gramWords) is the q-gram bound at q = 2: one edit
// operation destroys at most two of a string's adjacent pairs and creates at
// most two (a substitution replaces the pair on either side of its position;
// an insertion splits one pair into two; a deletion joins two into one), so
// strings within distance k have at most 2k pair occurrences in surplus on
// either side, summed over the sixteen pairs. As with countWord, saturating
// a count and leaving a pair uncounted can hide a difference, never invent
// one.
func gramWord[T string | []byte](s T) uint64 {
	var n [gramFields]uint8
	prev := uint8(4)
	for i := 0; i < len(s); i++ {
		c := gramCode[s[i]]
		if f := prev<<2 | c; prev|c < 4 && n[f] < gramMax {
			n[f]++
		}
		prev = c
	}
	var w uint64
	for f, c := range n {
		w |= uint64(c) << (gramBits * f)
	}
	return w
}

// gramSurplus is surplus for the gram word: how far a's sixteen counts exceed
// b's, summed. The even and the odd fields are spread over eight byte lanes
// each and go through the same guarded subtraction; a lane keeps at most
// gramMax, so the two halves add without carry and one multiplication sums
// the eight lanes in the top byte (at most gramCeiling < 256).
func gramSurplus(a, b uint64) int {
	de := (a&gramLanes | gramGuards) - b&gramLanes
	do := (a>>gramBits&gramLanes | gramGuards) - b>>gramBits&gramLanes
	ge, g := de&gramGuards, do&gramGuards
	return int((de&(ge-ge>>7) + do&(g-g>>7)) * gramOnes >> 56)
}

// keep is 1 when neither one-sided surplus exceeds bound and 0 when either
// does, read off the sign bits of the two differences. On near-uniform reads
// a third of a window passes the count word at k = 8 and a third of those the
// gram word, and no predictor learns which: there the survivor loops over
// reads (firstWord's dense one, gramWords) store every offset and advance
// their fill index by keep instead of branching.
func keep(ab, ba, bound int) int {
	return 1 - int(uint((bound-ab)|(bound-ba))>>63)
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
// own word of every kind, computed once however many Words and loose words
// the query is held against. It serves one goroutine. Visited, Passed and
// Kept accumulate, over every Sweep, the slots of the length windows, those
// whose first word survived, and those the sweep read the bytes of (= kernel
// calls, or byte compares at k = 0); Passed and Kept differ only where a
// Words has its second slab. A string outside an arena — an entry of the live
// store's delta — has the one word of WordOf, which Rejects tests and none of
// the three counts.
type Probe struct {
	text    string
	k       int
	p       *edit.MyersPattern // nil at k = 0: distance 0 is byte equality, no kernel to enter
	scratch *edit.MyersScratch
	sig     uint64 // the query's occurrence bits
	cnt     uint64 // the query's symbol counts
	gram    uint64 // the query's dinucleotide counts

	Visited, Passed, Kept uint64
}

// NewProbe compiles q for threshold k >= 0.
func NewProbe(q string, k int) Probe {
	pr := Probe{text: q, k: k, sig: signature(q), cnt: countWord(q), gram: gramWord(q)}
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
// every one of them is A, C, G, N or T, occurrence bits otherwise. Reads are
// near-uniform in composition, so an all-DNA arena gets a second word per
// slot, the dinucleotide counts, which tells apart what the symbol counts
// cannot. The words are derived data: whoever persists an arena rebuilds
// them from it.
type Words struct {
	ar     *Arena
	sigs   []uint64 // sigs[s] = word of slot s
	grams  []uint64 // grams[s] = gram word of slot s; nil unless counts
	counts bool     // the words are symbol counts (all-DNA arena), not occurrence bits
}

// NewWords computes the words of an arena the caller may share with other
// engines; it costs 8 bytes per string, 16 on an all-DNA arena.
func NewWords(ar *Arena) *Words {
	w := &Words{ar: ar, counts: allDNA(ar.buf), sigs: make([]uint64, ar.Len())}
	if w.counts {
		w.grams = make([]uint64, ar.Len())
	}
	var xb []byte
	l := 0 // slots come in bucket order here too
	for s := range w.sigs {
		if xb, l = ar.slotBytesFrom(int32(s), l); w.counts {
			w.sigs[s], w.grams[s] = countWord(xb), gramWord(xb)
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

// firstWord writes to surv the offsets into the block [blk, end) of the slots
// whose word sq does not rule out and returns how many there are. Which loop
// runs is decided once per block, not per slot: the occurrence-bit loop is a
// nanosecond per slot and a branch in it shows. At slack 0 both words reject
// exactly when they differ, so both kinds share that loop. Count words have
// two: where few slots pass, a branch on the reject is predicted and skips
// the second surplus; where many do — dense, which Sweep says of a block when
// more than an eighth of the one before it passed — it is mispredicted as
// often as not, and storing every offset and advancing by keep is cheaper.
//
// The loops live in a function of their own so that what Sweep keeps live
// around them — it grew when the gram words came — cannot cost them a
// register: inside Sweep the occurrence-bit loop reloaded a CPU feature flag
// per slot and the live store's city reads slowed by a tenth.
//
//go:noinline
func (w *Words) firstWord(blk, end int32, sq uint64, slack int, dense bool, surv *[ctxStride]int32) int {
	n := 0
	switch {
	case slack == 0:
		for i, sx := range w.sigs[blk:end] {
			if sx == sq {
				surv[n] = int32(i)
				n++
			}
		}
	case w.counts && dense:
		for i, sx := range w.sigs[blk:end] {
			surv[n] = int32(i)
			n += keep(surplus(sq, sx), surplus(sx, sq), slack)
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
	return n
}

// gramWords compacts surv[:n], the first word's survivors in the block at
// blk, down to those whose gram word is within bound of gq on both sides,
// and returns how many are left.
func (w *Words) gramWords(blk int32, gq uint64, bound int, surv *[ctxStride]int32, n int) int {
	m := 0
	for _, i := range surv[0:n] {
		gx := w.grams[blk+i]
		surv[m] = i
		m += keep(gramSurplus(gq, gx), gramSurplus(gx, gq), bound)
	}
	return m
}

// Sweep appends to dst every slot within the probe's k of its query, as
// matches carrying the arena's IDs in slot order: a concatenation of
// ID-ascending runs, one per length bucket, for MergeRuns to fold. A caller
// sweeping several arenas for one query reuses dst, so an arena without a
// match costs no allocation. slack is how far the words may differ on either
// side before a slot is dropped unread: the probe's k, or math.MaxInt to send
// every slot to the kernel (the cascade's ablation).
//
// The length window is a slot range; the sweep walks its words in blocks of
// ctxStride, polling ctx once per block, collects the block's survivors
// (firstWord) and only then looks up their bytes and hands them to the
// kernel (byte equality at k = 0). Where there are gram words and their
// bound of 2*slack can reject anything, a second pass compacts the block's
// survivors through them before any byte is read (gramWords). Survivors
// come in slot order, so the length bucket is carried along instead of
// searched for per survivor. The probe's counters are flushed on every exit
// path.
func (w *Words) Sweep(ctx context.Context, pr *Probe, slack int, dst []Match) ([]Match, error) {
	k := pr.k
	ar := w.ar
	l, maxLen := pr.Lengths() // l: the length bucket of the slot being verified
	lo, hi := ar.SlotRange(l, maxLen)
	if lo == hi {
		return dst, nil
	}
	var visited, passed, kept uint64
	defer func() {
		pr.Visited += visited
		pr.Passed += passed
		pr.Kept += kept
	}()
	sq := pr.sig
	if w.counts {
		sq = pr.cnt
	}
	// 2*slack < gramCeiling, written so the ablation's MaxInt is not doubled.
	grams := w.grams != nil && slack < gramCeiling/2
	var exact []byte // the query's bytes at k = 0
	if k == 0 {
		exact = []byte(pr.text)
	}
	var surv [ctxStride]int32 // one block's survivors, as offsets into the block
	dense := false            // more than an eighth of the last block passed the first word
	for blk := lo; blk < hi; blk += ctxStride {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(blk+ctxStride, hi)
		visited += uint64(end - blk)
		n := w.firstWord(blk, end, sq, slack, dense, &surv)
		passed += uint64(n)
		dense = n > int(end-blk)/8
		if grams {
			n = w.gramWords(blk, pr.gram, 2*slack, &surv, n)
		}
		kept += uint64(n)
		for _, i := range surv[0:n] {
			s := blk + i
			var xb []byte
			xb, l = ar.slotBytesFrom(s, l)
			if k == 0 {
				if bytes.Equal(xb, exact) {
					dst = append(dst, Match{ID: ar.ids[s]})
				}
				continue
			}
			if d, ok := pr.p.BoundedDistanceBytes(xb, k, pr.scratch); ok {
				dst = append(dst, Match{ID: ar.ids[s], Dist: d})
			}
		}
	}
	return dst, nil
}
