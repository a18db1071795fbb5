// The signature words and the sweep over them: one precomputed uint64 per
// arena slot — on an all-DNA arena also a 256-bit 4-gram set, read only for
// the slots the word lets through — read before any candidate byte is, and
// in front of them two summary words per block of sixteen slots, which a
// length bucket ordered by its words turns into whole blocks skipped
// unread. This is the tree's one sweep of an arena: the cascade engine
// (core.Cascade) and the live store's segments (internal/lsm) both run it,
// and the live store's delta goes through the same probe (loose.go).
package scan

import (
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
// symbol in the order A, C, G, N, T, in bytes 0 to 4, each holding how often
// the symbol occurs, saturating at fieldMax; bytes 5 to 7 are zero. fieldMax
// leaves every field's top bit clear for the subtraction in surplus to
// borrow from, and makes a field one byte that a byte instruction can take
// whole (popcnt_amd64.s).
const (
	dnaFields   = 5
	fieldBits   = 8
	fieldMax    = 1<<(fieldBits-1) - 1
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
// at least b's; those fields keep their difference and the others are
// cleared. Five differences of up to fieldMax overflow a byte, so the fields
// are added in pairs into 16-bit lanes first, and one multiplication adds
// the three lanes up in the third.
func surplus(a, b uint64) int {
	d := (a | fieldGuards) - b
	g := d & fieldGuards
	d &= g - g>>(fieldBits-1)
	d = (d + d>>fieldBits) & 0x00ff00ff00ff
	return int(d * 0x000100010001 >> 32 & 0xffff)
}

// countReject reports whether either word has more than slack occurrences in
// surplus over the other, which no pair of strings within slack edits has.
func countReject(a, b uint64, slack int) bool {
	return surplus(a, b) > slack || surplus(b, a) > slack
}

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

// gramSet is the 4-gram set of an all-DNA string: bit g says the 4-gram
// whose letters, coded A, C, G, T = 0..3, read g as a base-4 number occurs
// in the string at least once. A gram touching N — or, in a query, any other
// byte — is left out.
type gramSet [4]uint64

// gramSetOf collects the 4-grams of s.
//
// The filter built on it (cntGroup) is the q-gram lemma at q = 4 in set
// form. One edit operation destroys at most four of a string's gram
// positions and creates at most four (a substitution or a deletion touches
// the four windows over its position, an insertion splits three into
// four), and a gram of x that y lacks has had every one of its positions in
// x destroyed, each at least one. So strings within distance k each have at
// most 4k grams the other lacks. Leaving a gram out removes it from both
// sides of that count; it can hide a difference, never invent one.
func gramSetOf[T string | []byte](s T) (g gramSet) {
	var code uint8 // the last four letters' codes, two bits each
	run := 0       // how many letters in a row end here
	for i := 0; i < len(s); i++ {
		if c := gramCode[s[i]]; c == 4 {
			run = 0
		} else if code, run = code<<2|c, run+1; run >= 4 {
			g[code>>6] |= 1 << (code & 63)
		}
	}
	return g
}

// gramSetBits is how many grams a set holds, so a bound of 4k rejects
// nothing from k = gramSetBits/4 on.
const gramSetBits = 256

// keep is 1 when neither one-sided surplus exceeds bound and 0 when either
// does, read off the sign bits of the two differences. Half of a window of
// reads passes the count word at k = 8, and no predictor learns which: the
// loops store every offset and advance their fill index by keep instead.
func keep(ab, ba, bound int) int {
	return 1 - int(uint((bound-ab)|(bound-ba))>>(bits.UintSize-1))
}

// Probe is one query prepared for the words: its compiled pattern and its
// own word of each kind — occurrence bits, symbol counts, 4-gram set —
// computed on first use and kept however many Words and Loose sets the
// query is held against: a query of a live store may meet both kinds, one
// of a cascade meets one. It serves one goroutine.
// Visited, Swept, Passed and Kept accumulate, over every Words.Sweep, the
// slots of the length windows, those of them in blocks whose summary let the
// sweep in (the words actually read), those whose first word survived, and
// those the sweep read the bytes of (= candidates verified, or byte compares
// at k = 0); Passed and Kept differ only where a Words has its 4-gram sets.
// A Loose.Sweep counts in none of them. Every candidate, from an arena or a
// Loose, reaches the kernel through one queue, which each Sweep empties
// before it returns.
type Probe struct {
	text    string
	k       int
	p       *edit.MyersPattern // nil at k = 0: distance 0 is byte equality, no kernel to enter
	scratch *edit.MyersScratch
	have    uint8            // which of the three below are computed: haveOcc, haveCount, haveGrams
	sig     uint64           // the query's occurrence bits
	cnt     uint64           // the query's symbol counts
	grams   gramSet          // the query's 4-grams
	surv    [ctxStride]int32 // a swept group's survivors, as offsets from its first slot
	// The queue: candidate i < queued has ID ids[i] and its bytes named in
	// lanes within buf — the buffer of the arena or the Loose being swept.
	lanes  edit.Lanes
	ids    [edit.LaneCount]int32
	queued int
	buf    []byte

	Visited, Swept, Passed, Kept uint64
}

// The bits of Probe.have.
const (
	haveOcc = 1 << iota
	haveCount
	haveGrams
)

// NewProbe compiles q for threshold k >= 0. The probe, a group's survivors
// and all, is built in the result, not copied into it.
func NewProbe(q string, k int) (pr Probe) {
	pr.text, pr.k = q, k
	if k > 0 {
		pr.p = edit.CompileMyers(q)
	}
	if k > edit.MaxBandK { // only the blocked kernel reads a scratch
		pr.scratch = new(edit.MyersScratch)
	}
	return pr
}

// word returns the query's word of the kind counts says, computing it on
// first use.
func (pr *Probe) word(counts bool) uint64 {
	switch {
	case counts && pr.have&haveCount == 0:
		pr.cnt, pr.have = countWord(pr.text), pr.have|haveCount
	case !counts && pr.have&haveOcc == 0:
		pr.sig, pr.have = signature(pr.text), pr.have|haveOcc
	}
	if counts {
		return pr.cnt
	}
	return pr.sig
}

// fourGrams returns the query's 4-gram set, computing it on first use.
func (pr *Probe) fourGrams() *gramSet {
	if pr.have&haveGrams == 0 {
		pr.grams, pr.have = gramSetOf(pr.text), pr.have|haveGrams
	}
	return &pr.grams
}

// lengths returns the length window [lo, hi] outside which no string is
// within k of the query.
func (pr *Probe) lengths() (lo, hi int) {
	return max(len(pr.text)-pr.k, 0), len(pr.text) + pr.k
}

// rejects reports whether a string with this word, symbol counts or
// occurrence bits as counts says, is certainly farther than k from the query.
func (pr *Probe) rejects(word uint64, counts bool) bool {
	if counts {
		return countReject(pr.word(true), word, pr.k)
	}
	return sigReject(pr.word(false), word, pr.k)
}

// add queues the candidate buf[off:off+n] with ID id and reports whether the
// queue is due for flush: full, or at k = 0, where it holds one.
func (pr *Probe) add(off, n int, id int32) bool {
	pr.lanes.Off[pr.queued], pr.lanes.Len[pr.queued], pr.ids[pr.queued] = off, n, id
	pr.queued++
	return pr.queued == edit.LaneCount || pr.k == 0
}

// flush hands the queue to the kernel in one call and appends to dst, in lane
// order, a match for each candidate within k. At k = 0 it compares the one
// candidate's bytes with the query's instead: distance 0 is byte equality.
func (pr *Probe) flush(dst []Match) []Match {
	switch {
	case pr.queued == 0:
	case pr.k == 0:
		if string(pr.buf[pr.lanes.Off[0]:][:pr.lanes.Len[0]]) == pr.text {
			dst = append(dst, Match{ID: pr.ids[0]})
		}
	default:
		for ok := pr.p.BoundedLanes(pr.buf, &pr.lanes, pr.queued, pr.k, pr.scratch); ok != 0; ok &= ok - 1 {
			i := bits.TrailingZeros8(ok)
			dst = append(dst, Match{ID: pr.ids[i], Dist: pr.lanes.Dist[i]})
		}
	}
	pr.queued = 0
	return dst
}

// Words is one signature word per slot of an arena it packs itself. What the
// word holds is chosen once, at build time, from the data's bytes: symbol
// counts when every one of them is A, C, G, N or T, occurrence bits
// otherwise. Reads are near-uniform in composition, so an all-DNA arena
// also holds each slot's 4-gram set, which tells apart what the symbol
// counts cannot.
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
// The summaries are stored as two planes, every block's OR or maximum and
// then every block's AND or minimum, so that one side of eight neighbouring
// blocks is one AVX-512 vector. The 4-gram sets are laid out a block at a
// time, word by word (gramAt), so that a block's word j is one run of
// sixteen, two vectors.
//
// Order, words and summaries are derived data: whoever persists the strings
// rebuilds them with NewWords.
type Words struct {
	ar     *Arena
	sigs   []uint64 // sigs[s] = word of slot s
	grams  []uint64 // the 4-gram sets, one block of four runs after another (gramAt); nil unless counts
	sums   []uint64 // two planes: sums[b] = block b's OR (maximum), sums[nb+b] its AND (minimum), over nb blocks
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

// gramAt is where word 0 of slot s's 4-gram set is in Words.grams, word j
// j*blockSlots on: grams[64b+16j+i] for slot 16b+i. The last block is padded.
func gramAt(s int) int {
	return int(uint(s)/blockSlots*4*blockSlots + uint(s)%blockSlots)
}

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
// any other. Beside the arena it costs 8 bytes per string, 40 on all-DNA
// data (and the last block's padding), and one more for the summaries.
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
	nb := (len(data) + blockSlots - 1) / blockSlots
	w.ar, w.sigs = ar, make([]uint64, len(data))
	if w.counts {
		w.grams = make([]uint64, 4*blockSlots*nb)
	}
	for sl, o := range order {
		ar.place(int32(sl), o.id, data[o.id])
		if w.sigs[sl] = words[o.id]; w.counts {
			for j, x := range gramSetOf(data[o.id]) {
				w.grams[gramAt(sl)+j*blockSlots] = x
			}
		}
	}
	w.sums = make([]uint64, 2*nb)
	for b := 0; b < nb; b++ {
		w.sums[b], w.sums[nb+b] = w.summarize(b)
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
	if want := 4 * blockSlots * ((len(order) + blockSlots - 1) / blockSlots); w.counts && len(w.grams) != want {
		return fmt.Errorf("scan: %d 4-gram words over %d slots, want %d", len(w.grams), len(order), want)
	}
	var xb []byte
	l := 0
	for s := range order {
		xb, l = ar.slotBytesFrom(int32(s), l)
		want := signature(xb)
		if w.counts {
			want = countWord(xb)
			for j, g := range gramSetOf(xb) {
				if got := w.grams[gramAt(s)+j*blockSlots]; got != g {
					return fmt.Errorf("scan: slot %d (%q) has 4-gram word %d %#x, its bytes give %#x", s, xb, j, got, g)
				}
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
	nb := (len(order) + blockSlots - 1) / blockSlots
	if len(w.sums) != 2*nb {
		return fmt.Errorf("scan: %d summary words over %d slots, want %d", len(w.sums), len(order), 2*nb)
	}
	for b := 0; b < nb; b++ {
		hi, lo := w.summarize(b)
		if w.sums[b] != hi || w.sums[nb+b] != lo {
			return fmt.Errorf("scan: block %d has summary %#x, %#x, its slots give %#x, %#x", b, w.sums[b], w.sums[nb+b], hi, lo)
		}
	}
	return nil
}

// Arena returns the arena the words were computed over.
func (w *Words) Arena() *Arena { return w.ar }

// Counts reports the kind of the words: symbol counts (true) or occurrence
// bits.
func (w *Words) Counts() bool { return w.counts }

// blockMask tests the query's word sq against the summaries of the n <= 64
// blocks from block g on and returns a mask with bit j set when block g+j may
// hold a slot within slack of it. The test is the slot test held against the
// block's extremes, and sound for the same reason: every occurrence word x
// of the block has U ⊇ x ⊇ N for its OR U and AND N, so sq &^ x ⊇ sq &^ U
// and x &^ sq ⊇ N &^ sq — if either side of the summary is past slack, that
// side of every slot is; every count word has each field between the
// block's minimum and maximum, so its surplus under sq is at least the
// maximum's and its surplus over sq at least the minimum's. A summary also
// covers the block's slots outside the query's length window, which can
// only keep a block, never drop one. The loops are branch-free: sixty-four
// tests fold into one word, and the sweep branches once on that. Each kind
// of word takes one kernel call (popcnt_amd64.s) where the CPU has the
// kernel — POPCNT for occurrence words, AVX-512 for count words — and its
// Go loop everywhere else.
func (w *Words) blockMask(g int32, n int, sq uint64, slack int) uint64 {
	if n > groupBlocks { // a mask holds 64 blocks; the kernels check nothing and would drop the rest
		panic(fmt.Sprintf("scan: blockMask over %d blocks", n))
	}
	nb := len(w.sums) / 2
	hi, lo := w.sums[g:int(g)+n], w.sums[nb+int(g):nb+int(g)+n]
	switch {
	case w.counts && vpopcntKernels:
		return cntMaskAVX512(hi, lo, sq, slack)
	case w.counts:
		return cntMask(hi, lo, sq, slack)
	case popcntKernels:
		return occMaskPOPCNT(hi, lo, sq, slack)
	}
	return occMask(hi, lo, sq, slack)
}

// occMask is blockMask over occurrence words: bit j of the mask is set when
// neither sq &^ hi[j] nor lo[j] &^ sq has more than slack bits.
func occMask(hi, lo []uint64, sq uint64, slack int) uint64 {
	var mask uint64
	for j := range hi {
		mask |= uint64(keep(bits.OnesCount64(sq&^hi[j]), bits.OnesCount64(lo[j]&^sq), slack)) << j
	}
	return mask
}

// cntMask is blockMask over count words: bit j of the mask is set when
// neither the surplus of sq over hi[j] nor that of lo[j] over sq is past
// slack.
func cntMask(hi, lo []uint64, sq uint64, slack int) uint64 {
	var mask uint64
	for j := range hi {
		mask |= uint64(keep(surplus(sq, hi[j]), surplus(lo[j], sq), slack)) << j
	}
	return mask
}

// maskedWords reads the words of the blocks blockMask kept in the group at
// slot base — bit j of mask is block j — clamped to the window [lo, hi),
// leaves in surv the offsets from base of those sq does not rule out — on
// count words, of those whose 4-gram set is also within 4·slack (at most
// gramSetBits) of gq's — and returns how many it left, how many passed the
// first word and how many words were read, which follows from the mask and
// the clamps. Each kind of word takes one kernel call per group.
func (w *Words) maskedWords(base, lo, hi int32, mask, sq uint64, slack int, gq *gramSet, surv []int32) (n, passed, read int) {
	words := w.sigs[base:min(base+ctxStride, hi)]
	from := int(max(lo-base, 0))
	nb := (len(words) + blockSlots - 1) / blockSlots
	if len(words) > ctxStride || mask>>nb != 0 || from >= min(blockSlots, len(words)) {
		panic(fmt.Sprintf("scan: a group of %d words from %d with mask %#x", len(words), from, mask))
	}
	read = blockSlots*bits.OnesCount64(mask) - from*int(mask&1) - (nb*blockSlots-len(words))*int(mask>>(nb-1)&1)
	if !w.counts {
		if popcntKernels {
			n = occGroupPOPCNT(words, mask, from, surv, sq, slack)
		} else {
			n = occGroup(words, mask, from, surv, sq, slack)
		}
		return n, n, read
	}
	grams := w.grams[min(4*int(base), len(w.grams)):]
	if len(grams) < 4*blockSlots*nb {
		panic(fmt.Sprintf("scan: a group of %d words with %d 4-gram words", len(words), len(grams)))
	}
	bound := 4 * min(slack, gramSetBits/4)
	if vpopcntKernels {
		n, passed = cntGroupAVX512(words, grams, mask, from, surv, sq, gq, slack, bound)
	} else {
		n, passed = cntGroup(words, grams, mask, from, surv, sq, gq, slack, bound)
	}
	return n, passed, read
}

// occGroup is maskedWords over occurrence words: for every block j set in
// mask it tests words[16j:16j+16], clamped to [from, len(words)), and stores
// in surv the index of each word sigReject lets through, in order. At slack 0
// that is equality: no popcount but 0 is at most 0. It runs in assembly where
// the CPU has POPCNT (popcnt_amd64.s), and here everywhere else.
func occGroup(words []uint64, mask uint64, from int, surv []int32, sq uint64, slack int) int {
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		j := bits.TrailingZeros64(mask) * blockSlots
		for i := max(j, from); i < min(j+blockSlots, len(words)); i++ {
			if !sigReject(sq, words[i], slack) {
				surv[n] = int32(i)
				n++
			}
		}
	}
	return n
}

// cntGroup is maskedWords over count words: it tests the words of the blocks
// set in mask, clamped to [from, len(words)), against sq (countReject), the
// 4-gram sets of those that pass (grams, laid out as in Words) against gq's,
// and stores in surv, in order, the index of each slot whose set lacks at
// most bound of gq's grams and has at most bound gq lacks. It returns how
// many it stored and how many passed the count word. Most sets differ from
// gq's in more than 2*bound grams, which fails a side: that is tested first.
// It runs on AVX-512 where the CPU has it (popcnt_amd64.s), here elsewhere.
func cntGroup(words, grams []uint64, mask uint64, from int, surv []int32, sq uint64, gq *gramSet, slack, bound int) (n, passed int) {
	for mask != 0 {
		first := bits.TrailingZeros64(mask)
		run := bits.TrailingZeros64(^(mask >> first)) // 64 when the mask is all ones
		mask &^= (1<<run - 1) << first
		passed = cntRun(words, max(first*blockSlots, from), min((first+run)*blockSlots, len(words)), sq, slack, surv, passed)
	}
	for _, i := range surv[:passed] {
		x := (*[3*blockSlots + 1]uint64)(grams[gramAt(int(i)):])
		surv[n] = i
		if bits.OnesCount64(gq[0]^x[0])+bits.OnesCount64(gq[1]^x[blockSlots])+
			bits.OnesCount64(gq[2]^x[2*blockSlots])+bits.OnesCount64(gq[3]^x[3*blockSlots]) <= 2*bound {
			n += keep(bits.OnesCount64(gq[0]&^x[0])+bits.OnesCount64(gq[1]&^x[blockSlots])+
				bits.OnesCount64(gq[2]&^x[2*blockSlots])+bits.OnesCount64(gq[3]&^x[3*blockSlots]),
				bits.OnesCount64(x[0]&^gq[0])+bits.OnesCount64(x[blockSlots]&^gq[1])+
					bits.OnesCount64(x[2*blockSlots]&^gq[2])+bits.OnesCount64(x[3*blockSlots]&^gq[3]), bound)
		}
	}
	return n, passed
}

// cntRun is cntGroup's count-word loop over words[lo:hi]. Inlined in
// cntGroup it spilled its index and reloaded five values per slot, and reads
// at k = 8 ran 10% slower.
//
//go:noinline
func cntRun(words []uint64, lo, hi int, sq uint64, slack int, surv []int32, n int) int {
	for i, x := range words[lo:hi] {
		surv[n] = int32(lo + i)
		n += keep(surplus(sq, x), surplus(x, sq), slack)
	}
	return n
}

// Sweep appends to dst every slot within the probe's k of its query, as
// matches carrying the arena's IDs in slot order: inside a length bucket that
// is word order, so what comes out is a concatenation of short ID-ascending
// runs for MergeRuns to put in order. A caller sweeping several arenas for
// one query reuses dst, so an arena without a match costs no allocation.
// The words may differ by the probe's k on either side before a slot is
// dropped unread.
//
// The length window is a slot range, walked in groups of groupBlocks blocks,
// polling ctx once per group. Sweep first holds the query's word against the
// group's block summaries (blockMask) and goes on to the next group if none
// is kept; otherwise it reads the words of the kept blocks (maskedWords) —
// and where there are 4-gram sets, the sets of the slots the word lets
// through — and collects the group's survivors. It hands them to the
// probe's queue (add), as offsets and lengths into the arena's buffer — the
// queue carries what is left of a group into the next one, and what is left
// at the window's end goes as one last, shorter batch. Survivors come in
// slot order and a batch reports in lane order, so the matches stay in slot
// order; the length bucket is carried along instead of searched for per
// survivor, from the window's shortest length on. The probe's counters are
// flushed on every exit path.
func (w *Words) Sweep(ctx context.Context, pr *Probe, dst []Match) ([]Match, error) {
	k := pr.k
	ar := w.ar
	lo, hi := ar.slotRange(pr.lengths())
	l, _ := pr.lengths() // the length bucket of the slot being verified
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
	sq := pr.word(w.counts)
	var gq *gramSet
	if w.counts {
		gq = pr.fourGrams()
	}
	pr.buf = ar.buf[:cap(ar.buf)] // newLayout leaves edit.LanePad zero bytes past the last slot
	blocks := (hi + blockSlots - 1) / blockSlots
	for g := lo / blockSlots; g < blocks; g += groupBlocks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base := g * blockSlots
		visited += uint64(min(base+ctxStride, hi) - max(base, lo))
		mask := w.blockMask(g, int(min(groupBlocks, blocks-g)), sq, k)
		if mask == 0 {
			continue
		}
		n, pass, read := w.maskedWords(base, lo, hi, mask, sq, k, gq, pr.surv[:])
		swept += uint64(read)
		passed += uint64(pass)
		kept += uint64(n)
		for _, i := range pr.surv[0:n] {
			s := base + i
			var off int
			off, l = ar.slotFrom(s, l)
			if pr.add(off, l, ar.ids[s]) {
				dst = pr.flush(dst)
			}
		}
	}
	return pr.flush(dst), nil
}
