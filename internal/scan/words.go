// The signature words and the sweep over them: one precomputed uint64 per
// arena slot — two on an all-DNA arena, the second read only for slots the
// first lets through — read before any candidate byte is, and in front of
// them two summary words per block of sixteen slots, which a length bucket
// ordered by its words turns into whole blocks skipped unread. The cascade
// engine (internal/cascade) and the live store's segments (internal/lsm)
// both run this sweep; the bare BitParallel rung builds no words and reads
// none.
package scan

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

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
// the query is held against. It serves one goroutine. Visited, Swept, Passed
// and Kept accumulate, over every Sweep, the slots of the length windows,
// those of them in blocks whose summary let the sweep in (the words actually
// read), those whose first word survived, and those the sweep read the bytes
// of (= kernel calls, or byte compares at k = 0); Passed and Kept differ only
// where a Words has its second slab. A string outside an arena — an entry of
// the live store's delta — has the one word of WordOf, which Rejects tests
// and none of the four counts.
type Probe struct {
	text    string
	k       int
	p       *edit.MyersPattern // nil at k = 0: distance 0 is byte equality, no kernel to enter
	scratch *edit.MyersScratch
	sig     uint64 // the query's occurrence bits
	cnt     uint64 // the query's symbol counts
	gram    uint64 // the query's dinucleotide counts

	Visited, Swept, Passed, Kept uint64
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

// Words is one signature word per slot of an arena it packs itself. What the
// word holds is chosen once, at build time, from the data's bytes: symbol
// counts when every one of them is A, C, G, N or T, occurrence bits
// otherwise. Reads are near-uniform in composition, so an all-DNA arena gets
// a second word per slot, the dinucleotide counts, which tells apart what
// the symbol counts cannot.
//
// The arena's length buckets are ordered by (key of the word, ID), so slots
// with like words are neighbours, and every block of blockSlots slots —
// aligned to the slot index, so a block may straddle two buckets — has two
// summary words: the OR and the AND of its occurrence words, or the
// per-field maximum and minimum of its count words. A query whose word is
// more than its slack away from the summary is that far from every word in
// the block (blockMask), and the sweep skips the block unread. Any order is
// correct, because a summary is computed from exactly the slots of its
// block; the key decides only how many blocks a query enters.
//
// Order, words and summaries are derived data: whoever persists the strings
// rebuilds them with NewWords.
type Words struct {
	ar     *Arena
	sigs   []uint64 // sigs[s] = word of slot s
	grams  []uint64 // grams[s] = gram word of slot s; nil unless counts
	sums   []uint64 // sums[2b], sums[2b+1] = the two summary words of block b
	counts bool     // the words are symbol counts (all-DNA arena), not occurrence bits
}

const (
	// blockSlots is how many slots share a pair of summary words: one byte
	// per string. Smaller blocks skip more and cost more to test; sixteen is
	// where the sum over city names at k = 0..3 bottomed out (DESIGN §13).
	blockSlots = 16
	// groupBlocks is how many block tests the sweep folds into one mask
	// between two cancellation polls: a ctxStride of slots, one bit a block.
	groupBlocks = ctxStride / blockSlots
)

var _ [64 - groupBlocks]struct{} // a group's mask is one uint64

// slotKey is one string on its way into a word-ordered arena.
type slotKey struct {
	key uint64 // what its length bucket is ordered by
	id  int32
}

// cmpSlotKey orders a length bucket: by key, then by ID, so that strings
// with one word — duplicates above all — stay an ID-ascending run.
func cmpSlotKey(a, b slotKey) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// balancedKeys turns the occurrence words in order into sort keys: the
// word's bits gathered most-balanced-first, the bit nearest to being set in
// half of the words on top. Sorting by such a key splits a bucket on its
// most informative bit first, then each half on the next, so a block of
// neighbours agrees on as many bits as sixteen strings can, and those are
// the bits its OR and AND summaries keep apart from a query's. Bits that
// are set in every word or in none tell nothing and are left out.
func balancedKeys(order []slotKey) {
	var ones [64]int
	for _, o := range order {
		for w := o.key; w != 0; w &= w - 1 {
			ones[bits.TrailingZeros64(w)]++
		}
	}
	var perm []wordBit
	for b, c := range ones {
		if c != 0 && c != len(order) {
			perm = append(perm, wordBit{skew: max(2*c-len(order), len(order)-2*c), at: b})
		}
	}
	slices.SortFunc(perm, cmpBitSkew)
	// Gather through one table per byte of the word: tab[p][v] holds the key
	// bits of the word bits set in byte p when it reads v, filled from the
	// entry with v's lowest bit cleared, so a word costs eight lookups.
	var tab [8][256]uint64
	for j, b := range perm {
		tab[b.at/8][1<<(b.at%8)] = 1 << (len(perm) - 1 - j)
	}
	for p := range tab {
		for v := 1; v < 256; v++ {
			tab[p][v] = tab[p][v&(v-1)] | tab[p][v&-v]
		}
	}
	for i, o := range order {
		var key uint64
		for p := range tab {
			key |= tab[p][byte(o.key>>(8*p))]
		}
		order[i].key = key
	}
}

// wordBit is one bit position of the occurrence words of an arena and how far
// from half of them it is set in.
type wordBit struct{ skew, at int }

// cmpBitSkew orders bit positions most balanced first, ties by position.
func cmpBitSkew(a, b wordBit) int {
	if c := cmp.Compare(a.skew, b.skew); c != 0 {
		return c
	}
	return cmp.Compare(a.at, b.at)
}

// NewWords packs data into an arena of its own, every length bucket ordered
// by (key of the string's word, ID) — the count word itself on all-DNA data,
// the occurrence bits gathered most-balanced-first otherwise — and computes
// the words and the block summaries over it. The order is fixed here, in the
// arena's one placement pass, and the arena is immutable from then on like
// any other. Beside the arena it costs 8 bytes per string, 16 on all-DNA
// data, and one more for the summaries.
func NewWords(data []string) *Words {
	w := &Words{counts: true}
	for _, s := range data {
		if !allDNA(s) {
			w.counts = false
			break
		}
	}
	ar := newLayout(data)
	words := make([]uint64, len(data))  // by ID
	order := make([]slotKey, len(data)) // (length, ID) order first: the arena's own stable pass
	next := ar.bucketCursors()
	for i, s := range data {
		if w.counts {
			words[i] = countWord(s)
		} else {
			words[i] = signature(s)
		}
		order[next[len(s)]] = slotKey{key: words[i], id: int32(i)}
		next[len(s)]++
	}
	if !w.counts {
		balancedKeys(order)
	}
	for l := 0; l <= ar.maxLen; l++ {
		slices.SortFunc(order[ar.lenStart[l]:ar.lenStart[l+1]], cmpSlotKey)
	}
	w.ar, w.sigs = ar, make([]uint64, len(data))
	if w.counts {
		w.grams = make([]uint64, len(data))
	}
	for sl, o := range order {
		ar.place(int32(sl), o.id, data[o.id])
		if w.sigs[sl] = words[o.id]; w.counts {
			w.grams[sl] = gramWord(data[o.id])
		}
	}
	w.sums = make([]uint64, 2*((len(data)+blockSlots-1)/blockSlots))
	for b := 0; 2*b < len(w.sums); b++ {
		w.sums[2*b], w.sums[2*b+1] = w.summarize(b)
	}
	return w
}

// summarize returns the two summary words of block b, from exactly its
// slots: the bits set in any and the bits set in all of its occurrence
// words, or the per-field maximum and minimum of its count words.
func (w *Words) summarize(b int) (hi, lo uint64) {
	blk := w.sigs[b*blockSlots : min((b+1)*blockSlots, len(w.sigs))]
	hi, lo = blk[0], blk[0]
	for _, x := range blk[1:] {
		if !w.counts {
			hi, lo = hi|x, lo&x
			continue
		}
		for f := 0; f < dnaFields; f++ {
			field := uint64(1<<fieldBits-1) << (fieldBits * f)
			if x&field > hi&field {
				hi = hi&^field | x&field
			}
			if x&field < lo&field {
				lo = lo&^field | x&field
			}
		}
	}
	return hi, lo
}

// Verify recomputes everything NewWords derives and reports the first
// difference: every slot's words from its bytes, every length bucket's order
// from its words, every block's summary from its slots. It is for whoever
// rebuilds words from persisted strings (the live store's tests run it on
// every segment after a flush, a compaction and a reopen) and costs about
// what NewWords does.
func (w *Words) Verify() error {
	ar := w.ar
	order := make([]slotKey, ar.Len())
	var xb []byte
	l := 0
	for s := range order {
		xb, l = ar.slotBytesFrom(int32(s), l)
		want := signature(xb)
		if w.counts {
			want = countWord(xb)
			if g := gramWord(xb); w.grams[s] != g {
				return fmt.Errorf("scan: slot %d (%q) has gram word %#x, its bytes give %#x", s, xb, w.grams[s], g)
			}
		}
		if w.sigs[s] != want {
			return fmt.Errorf("scan: slot %d (%q) has word %#x, its bytes give %#x", s, xb, w.sigs[s], want)
		}
		order[s] = slotKey{key: want, id: ar.ids[s]}
	}
	if !w.counts {
		balancedKeys(order)
	}
	for l := 0; l <= ar.maxLen; l++ {
		if b := order[ar.lenStart[l]:ar.lenStart[l+1]]; !slices.IsSortedFunc(b, cmpSlotKey) {
			return fmt.Errorf("scan: the bucket of length %d is not in (key of the word, ID) order", l)
		}
	}
	if want := 2 * ((len(order) + blockSlots - 1) / blockSlots); len(w.sums) != want {
		return fmt.Errorf("scan: %d summary words over %d slots, want %d", len(w.sums), len(order), want)
	}
	for b := 0; 2*b < len(w.sums); b++ {
		hi, lo := w.summarize(b)
		if w.sums[2*b] != hi || w.sums[2*b+1] != lo {
			return fmt.Errorf("scan: block %d has summary %#x, %#x, its slots give %#x, %#x", b, w.sums[2*b], w.sums[2*b+1], hi, lo)
		}
	}
	return nil
}

// Arena returns the arena the words were computed over.
func (w *Words) Arena() *Arena { return w.ar }

// Counts reports the kind of the words: symbol counts (true) or occurrence
// bits.
func (w *Words) Counts() bool { return w.counts }

// blockMask tests the query's word sq against the summaries of the n blocks
// from block g on and returns a mask with bit j set when block g+j may hold
// a slot within slack of it. The test is the slot test held against the
// block's extremes, and sound for the same reason: every occurrence word x
// of the block has U ⊇ x ⊇ N for its OR U and AND N, so sq &^ x ⊇ sq &^ U
// and x &^ sq ⊇ N &^ sq — if either side of the summary is past slack, that
// side of every slot is; every count word has each field between the
// block's minimum and maximum, so its surplus under sq is at least the
// maximum's and its surplus over sq at least the minimum's. A summary also
// covers the block's slots outside the query's length window, which can
// only keep a block, never drop one. The loop is branch-free: sixty-four
// tests fold into one word, and the sweep branches once on that.
func (w *Words) blockMask(g int32, n int, sq uint64, slack int) uint64 {
	var mask uint64
	sums := w.sums[2*g : 2*(int(g)+n)]
	if w.counts {
		for j := 0; j < n; j++ {
			hi, lo := sums[2*j], sums[2*j+1]
			mask |= uint64(keep(surplus(sq, hi), surplus(lo, sq), slack)) << j
		}
		return mask
	}
	for j := 0; j < n; j++ {
		hi, lo := sums[2*j], sums[2*j+1]
		mask |= uint64(keep(bits.OnesCount64(sq&^hi), bits.OnesCount64(lo&^sq), slack)) << j
	}
	return mask
}

// maskedWords walks the runs of set bits of mask — the blocks of the group
// at slot base that blockMask kept — clamped to the window [lo, hi), hands
// each run's words to firstWord, and returns how many slots it left in surv
// and how many words were read.
func (w *Words) maskedWords(base, lo, hi int32, mask, sq uint64, slack int, dense bool, surv *[ctxStride]int32) (n, read int) {
	for mask != 0 {
		first := bits.TrailingZeros64(mask)
		run := bits.TrailingZeros64(^(mask >> first)) // 64 when the mask is all ones
		mask &^= (1<<run - 1) << first
		from := max(base+int32(first)*blockSlots, lo)
		to := min(base+int32(first+run)*blockSlots, hi)
		read += int(to - from)
		n = w.firstWord(w.sigs[from:to], from-base, sq, slack, dense, surv, n)
	}
	return n, read
}

// firstWord appends to surv[n:] the offsets, counted from off, of the words
// of one run that sq does not rule out, and returns the new fill. Which loop
// runs is decided once per group, not per slot: the occurrence-bit loop is a
// nanosecond per slot and a branch in it shows. At slack 0 both words reject
// exactly when they differ, so both kinds share that loop. Count words have
// two: where few slots pass, a branch on the reject is predicted and skips
// the second surplus; where many do — dense, which Sweep says of a group when
// more than an eighth of what it read in the one before passed — it is
// mispredicted as often as not, and storing every offset and advancing by
// keep is cheaper.
//
// The loops live in a function of their own, with nothing but the run in
// it, so that what the callers keep live around them cannot cost them a
// register: inside Sweep the occurrence-bit loop reloaded a CPU feature flag
// per slot and the live store's city reads slowed by a tenth, and inside
// the walk over a mask's runs every loop ran at half speed.
//
//go:noinline
func (w *Words) firstWord(run []uint64, off int32, sq uint64, slack int, dense bool, surv *[ctxStride]int32, n int) int {
	switch {
	case slack == 0:
		for i, sx := range run {
			if sx == sq {
				surv[n] = off + int32(i)
				n++
			}
		}
	case w.counts && dense:
		for i, sx := range run {
			surv[n] = off + int32(i)
			n += keep(surplus(sq, sx), surplus(sx, sq), slack)
		}
	case w.counts:
		for i, sx := range run {
			if !countReject(sq, sx, slack) {
				surv[n] = off + int32(i)
				n++
			}
		}
	default:
		for i, sx := range run {
			if !sigReject(sq, sx, slack) {
				surv[n] = off + int32(i)
				n++
			}
		}
	}
	return n
}

// gramWords compacts surv[:n], the first word's survivors in the group at
// slot base, down to those whose gram word is within bound of gq on both
// sides, and returns how many are left.
func (w *Words) gramWords(base int32, gq uint64, bound int, surv *[ctxStride]int32, n int) int {
	m := 0
	for _, i := range surv[0:n] {
		gx := w.grams[base+i]
		surv[m] = i
		m += keep(gramSurplus(gq, gx), gramSurplus(gx, gq), bound)
	}
	return m
}

// Sweep appends to dst every slot within the probe's k of its query, as
// matches carrying the arena's IDs in slot order: inside a length bucket that
// is word order, so what comes out is a concatenation of short ID-ascending
// runs for MergeRuns to put in order. A caller sweeping several arenas for
// one query reuses dst, so an arena without a match costs no allocation.
// slack is how far the words may differ on either side before a slot is
// dropped unread: the probe's k, or math.MaxInt to send every slot to the
// kernel (the cascade's ablation; no summary and no word rejects at it).
//
// The length window is a slot range; the sweep walks it in groups of
// groupBlocks blocks, polling ctx once per group. It first holds the query's
// word against the group's block summaries (blockMask) and goes on to the
// next group if none is kept; otherwise it reads the words of the kept
// blocks (maskedWords, firstWord), collects the group's survivors and only
// then looks up their bytes and hands them to the kernel (byte equality at
// k = 0). Where there are gram words and their bound of 2*slack can reject
// anything, a second pass compacts the group's survivors through them
// before any byte is read (gramWords). Survivors come in slot order, so the
// length bucket is carried along instead of searched for per survivor. The
// probe's counters are flushed on every exit path.
func (w *Words) Sweep(ctx context.Context, pr *Probe, slack int, dst []Match) ([]Match, error) {
	k := pr.k
	ar := w.ar
	l, maxLen := pr.Lengths() // l: the length bucket of the slot being verified
	lo, hi := ar.SlotRange(l, maxLen)
	if lo == hi {
		return dst, nil
	}
	var visited, swept, passed, kept uint64
	defer func() {
		pr.Visited += visited
		pr.Swept += swept
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
	var surv [ctxStride]int32 // one group's survivors, as offsets from its first slot
	dense := false            // more than an eighth of the last group's words passed
	blocks := (hi + blockSlots - 1) / blockSlots
	for g := lo / blockSlots; g < blocks; g += groupBlocks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base := g * blockSlots
		visited += uint64(min(base+ctxStride, hi) - max(base, lo))
		mask := w.blockMask(g, int(min(groupBlocks, blocks-g)), sq, slack)
		if mask == 0 {
			continue
		}
		n, read := w.maskedWords(base, lo, hi, mask, sq, slack, dense, &surv)
		swept += uint64(read)
		passed += uint64(n)
		dense = n > read/8
		if grams {
			n = w.gramWords(base, pr.gram, 2*slack, &surv, n)
		}
		kept += uint64(n)
		for _, i := range surv[0:n] {
			s := base + i
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
