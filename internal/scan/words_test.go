package scan

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"simsearch/internal/dataset"
	"simsearch/internal/edit"
)

// editAlphabet is what the property test's edits draw from: letters, DNA,
// bytes >= 0x80, and bytes that collide under & 31 ('a', 'A', '!', 0x81 and
// 0xe1 all land in bucket 1; 't', 'T', 0xf4 in bucket 20).
const editAlphabet = "aA!\x81\xe1tT\xf4 -enrsACGNT\xc3\xbc\xff\x00"

// mutate applies n random single-byte edits to s.
func mutate(r *rand.Rand, s string, n int) string {
	b := []byte(s)
	for ; n > 0; n-- {
		c := editAlphabet[r.Intn(len(editAlphabet))]
		switch op := r.Intn(3); {
		case op == 0 || len(b) == 0: // insert
			i := r.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{c}, b[i:]...)...)
		case op == 1: // delete
			i := r.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		default: // substitute
			b[r.Intn(len(b))] = c
		}
	}
	return string(b)
}

// TestSignatureNeverRejectsWithinK is the soundness property: a pair built by
// at most k edits is never rejected at threshold k, on city-like and
// DNA-like strings, non-UTF-8 bytes and bucket collisions included.
func TestSignatureNeverRejectsWithinK(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	bases := append(dataset.Cities(300, 18), dataset.DNAReads(100, 18)...)
	bases = append(bases, "", "a", "\xff\xff\xff", strings.Repeat("aA", 40))
	for round := 0; round < 40; round++ {
		for _, base := range bases {
			k := r.Intn(9)
			a := mutate(r, base, r.Intn(3)) // the stored string need not be clean either
			b := mutate(r, a, r.Intn(k+1))
			if sigReject(signature(a), signature([]byte(b)), k) {
				t.Fatalf("%q and %q are within %d edits (distance %d) but their signatures %#x, %#x are rejected",
					a, b, k, edit.Distance(a, b), signature(a), signature(b))
			}
		}
	}
}

// exhaustive checks every pair of strings up to length 5 over a three-letter
// alphabet at the pair's exact distance, the tightest threshold that must
// still admit it; that at k = 0 the filter is word inequality, which the
// k = 0 sweep relies on; and that the filter rejects something.
func exhaustive[W comparable](t *testing.T, alphabet string, word func(string) W, reject func(a, b W, k int) bool) {
	all := []string{""}
	for lo := 0; len(all[lo]) < 5; lo++ {
		for _, c := range alphabet {
			all = append(all, all[lo]+string(c))
		}
	}
	if len(all) != 364 {
		t.Fatalf("enumerated %d strings, want 364", len(all))
	}
	rejected := 0
	for _, a := range all {
		wa := word(a)
		for _, b := range all {
			wb, d := word(b), edit.Distance(a, b)
			if reject(wa, wb, d) {
				t.Fatalf("%q, %q at distance %d are rejected at k=%d (%v, %v)", a, b, d, d, wa, wb)
			}
			if reject(wa, wb, 0) != (wa != wb) {
				t.Fatalf("%q, %q: rejection at k=0 must be word inequality (%v, %v)", a, b, wa, wb)
			}
			if d > 0 && reject(wa, wb, d-1) {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Error("the word rejected no pair one threshold below its distance: the filter is vacuous")
	}
}

// TestSignatureExhaustiveSmallAlphabet: {a, A, b} — 'a' and 'A' share bucket
// 1, so the fold and the saturating count are both exercised.
func TestSignatureExhaustiveSmallAlphabet(t *testing.T) {
	exhaustive(t, "aAb", signature[string], sigReject)
}

// TestCountWordExhaustiveSmallAlphabet: {A, C, N}, three of the five fields.
func TestCountWordExhaustiveSmallAlphabet(t *testing.T) {
	exhaustive(t, "ACN", countWord[string], countReject)
}

// TestCountWordNeverRejectsWithinK is the same property for the count word:
// a stored all-DNA string and a query at most k edits away — the edits draw
// on editAlphabet, so the query may hold bytes no field counts — are never
// rejected at threshold k, whichever operand is which. One base is long
// enough to saturate a field.
func TestCountWordNeverRejectsWithinK(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	bases := append(dataset.DNAReads(200, 20), "", "N", "ACGTN",
		strings.Repeat("A", fieldMax+40)+"CGT", strings.Repeat("AC", fieldMax))
	for round := 0; round < 20; round++ {
		for _, x := range bases {
			k := r.Intn(17)
			q := mutate(r, x, r.Intn(k+1))
			wx, wq := countWord(x), countWord([]byte(q))
			if countReject(wq, wx, k) || countReject(wx, wq, k) {
				t.Fatalf("%q and %q are within %d edits (distance %d) but their count words %#x, %#x are rejected",
					x, q, k, edit.Distance(x, q), wx, wq)
			}
		}
	}
	if w := countWord(strings.Repeat("A", fieldMax+40)); w != fieldMax {
		t.Errorf("count word of %d As = %#x, want the A field saturated at %#x", fieldMax+40, w, fieldMax)
	}
}

// gramReject is the gram stage's decision as the sweep takes it: drop the
// slot when either side has more than 4k grams the other lacks.
func gramReject(a, b gramSet, k int) bool {
	return keep(gramsLacking(&a, &b), gramsLacking(&b, &a), 4*k) == 0
}

// deBruijn4 is a de Bruijn sequence B(4, 4) over ACGT read as a line: its
// 256 letters and its first three again, so that each of the 256 4-grams
// starts at exactly one position (TestGramSetLayout checks it).
var deBruijn4 = func() string {
	// The Fredricksen–Kessler–Maiorana construction: the Lyndon words whose
	// length divides 4, in lexicographic order.
	var a [5]int
	var seq []byte
	var db func(t, p int)
	db = func(t, p int) {
		if t > 4 {
			if 4%p == 0 {
				for _, c := range a[1 : p+1] {
					seq = append(seq, "ACGT"[c])
				}
			}
			return
		}
		a[t] = a[t-p]
		db(t+1, p)
		for j := a[t-p] + 1; j < 4; j++ {
			a[t] = j
			db(t+1, t)
		}
	}
	db(1, 1)
	return string(append(seq, seq[:3]...))
}()

// TestGramSetLayout pins the encoding: gram g is bit g%64 of word g/64, g
// the letters coded A, C, G, T = 0..3 read as a base-4 number; a gram
// touching N or a byte outside the alphabet is left out; the de Bruijn read
// holds every gram exactly once and so sets all 256 bits.
func TestGramSetLayout(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want gramSet
	}{
		{"", gramSet{}}, {"ACG", gramSet{}}, {"ACNGT", gramSet{}}, {"AxCGT", gramSet{}}, {"a\xffcgt", gramSet{}},
		{"AAAA", gramSet{1}},
		{"ACGT", gramSet{1 << 0b00011011}},
		{"TTTT", gramSet{3: 1 << 63}},
		{"AxCGTA", gramSet{1: 1 << (0b01101100 - 64)}},
		{"NAAAANTTTTT", gramSet{1, 0, 0, 1 << 63}},
		{strings.Repeat("A", 300), gramSet{1}},
		{deBruijn4, gramSet{1<<64 - 1, 1<<64 - 1, 1<<64 - 1, 1<<64 - 1}},
	} {
		if got := gramSetOf(tc.s); got != tc.want {
			t.Errorf("gramSetOf(%.20q) = %x, want %x", tc.s, got, tc.want)
		}
		if got := gramSetOf([]byte(tc.s)); got != tc.want {
			t.Errorf("gramSetOf([]byte(%.20q)) = %x, want %x", tc.s, got, tc.want)
		}
	}
	seen := map[string]int{}
	for i := 0; i+4 <= len(deBruijn4); i++ {
		seen[deBruijn4[i:i+4]]++
	}
	if len(deBruijn4) != 259 || len(seen) != 256 {
		t.Fatalf("the de Bruijn read has %d letters and %d distinct grams, want 259 and 256", len(deBruijn4), len(seen))
	}
}

// TestGramsLackingAgainstScalar holds the four popcounts against a loop over
// the 256 grams, on random sets and on the extremes, and keep against its
// definition.
func TestGramsLackingAgainstScalar(t *testing.T) {
	scalar := func(a, b gramSet) (n int) {
		for g := 0; g < gramSetBits; g++ {
			if a[g/64]>>(g%64)&1 == 1 && b[g/64]>>(g%64)&1 == 0 {
				n++
			}
		}
		return n
	}
	r := rand.New(rand.NewSource(23))
	full := gramSet{1<<64 - 1, 1<<64 - 1, 1<<64 - 1, 1<<64 - 1}
	sets := []gramSet{{}, full, {1}, {3: 1 << 63}}
	for len(sets) < 200 {
		var g gramSet
		for i := range g {
			g[i] = r.Uint64() & r.Uint64()
		}
		sets = append(sets, g)
	}
	for _, a := range sets {
		for _, b := range sets {
			if got, want := gramsLacking(&a, &b), scalar(a, b); got != want {
				t.Fatalf("gramsLacking(%x, %x) = %d, want %d", a, b, got, want)
			}
		}
	}
	if got := gramsLacking(&full, &gramSet{}); got != gramSetBits {
		t.Errorf("every gram over none shows %d, want gramSetBits = %d", got, gramSetBits)
	}
	for _, tc := range []struct{ ab, ba, bound, want int }{
		{0, 0, 0, 1}, {1, 0, 0, 0}, {0, 1, 0, 0}, {16, 16, 16, 1}, {17, 0, 16, 0}, {0, 17, 16, 0},
		{gramSetBits, gramSetBits, gramSetBits, 1}, {fieldMax, fieldMax, math.MaxInt, 1},
	} {
		if got := keep(tc.ab, tc.ba, tc.bound); got != tc.want {
			t.Errorf("keep(%d, %d, %d) = %d, want %d", tc.ab, tc.ba, tc.bound, got, tc.want)
		}
	}
}

// TestGramSetExhaustiveSmallAlphabet: {A, C, N} — sixteen of the 256 grams,
// and every string with an N has fewer windows than letters.
func TestGramSetExhaustiveSmallAlphabet(t *testing.T) {
	exhaustive(t, "ACN", gramSetOf[string], gramReject)
}

// TestGramStageNeverRejectsWithinK is the soundness property of the 4-gram
// set: a stored all-DNA string and a query at most k edits away are never
// told apart by their sets at bound 4k, whichever operand is which, and a
// one-slot arena swept for that query returns the string — for k up to the
// last threshold at which the stage runs and the first at which it no
// longer does. The bases are the shapes the bound's argument leans on:
// homopolymer runs with one gram, reads with N, strings shorter than a gram,
// the de Bruijn read with every gram once; the edits draw on editAlphabet,
// so the query may hold N and bytes no set holds.
func TestGramStageNeverRejectsWithinK(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	bases := append(dataset.DNAReads(60, 23), "", "A", "N", "AAAA", "ACGTN",
		strings.Repeat("A", 15), strings.Repeat("A", 40)+"C"+strings.Repeat("A", 40),
		strings.Repeat("ANNA", 20), strings.Repeat("N", 50), strings.Repeat("ACGTN", 30),
		deBruijn4, deBruijn4+"NNAC"+deBruijn4[:100])
	ks := []int{0, 1, 2, 4, 8, 16, 31, 32, 48, gramSetBits/4 - 1, gramSetBits / 4}
	for round := 0; round < 6; round++ {
		for _, x := range bases {
			for _, k := range ks {
				q := homopolymerEdit(x, k)
				if round%2 == 0 {
					q = mutate(r, x, r.Intn(k+1))
				}
				gx, gq := gramSetOf(x), gramSetOf([]byte(q))
				if k < gramSetBits/4 && (gramReject(gq, gx, k) || gramReject(gx, gq, k)) {
					t.Fatalf("%.40q and %.40q are within %d edits (distance %d) but their 4-gram sets are %d and %d apart",
						x, q, k, edit.Distance(x, q), gramsLacking(&gx, &gq), gramsLacking(&gq, &gx))
				}
				w := NewWords([]string{x})
				if w.grams == nil {
					t.Fatalf("%.40q: an all-DNA arena must have its 4-gram sets", x)
				}
				pr := NewProbe(q, k)
				ms, err := w.Sweep(context.Background(), &pr, nil)
				if want := edit.Distance(x, q); err != nil || len(ms) != 1 || ms[0].Dist != want {
					t.Fatalf("sweep of %.40q for %.40q at k=%d = %v, %v; want distance %d", x, q, k, ms, err, want)
				}
			}
		}
	}
}

// homopolymerEdit overwrites the first min(k, len(s)) letters of s with T:
// exactly that many substitutions at most, and the edit that leaves the
// fewest grams behind.
func homopolymerEdit(s string, k int) string {
	n := min(k, len(s))
	return strings.Repeat("T", n) + s[n:]
}

// TestGramSetBoundIsTight: 4k is the least bound that admits every pair
// within k. The de Bruijn read holds each gram at exactly one position, so k
// substitutions at least four apart destroy 4k distinct grams; when no new
// letter makes a gram that some substitution destroys, the two strings are
// at distance k and exactly 4k grams apart, and a one-slot sweep at k must
// still return the read. Under a bound of 4k - 1 it would not.
func TestGramSetBoundIsTight(t *testing.T) {
	x := deBruijn4
	gx := gramSetOf(x)
	w := NewWords([]string{x})
	for k := 1; k <= 16; k++ {
		y := []byte(x)
		destroyed, made := map[string]bool{}, map[string]bool{}
		p := 3 // the next position a substitution may take
		for i := 0; i < k; i++ {
			found := false
			for ; !found && p+3 < len(x); p++ {
				gone := map[string]bool{}
				for s := p - 3; s <= p; s++ {
					gone[x[s:s+4]] = true
				}
				clash := false // a gram this position destroys was made earlier
				for g := range gone {
					clash = clash || made[g]
				}
				for _, c := range []byte("ACGT") {
					if clash || c == x[p] {
						continue
					}
					y[p] = c
					ok := true
					for s := p - 3; s <= p; s++ {
						g := string(y[s : s+4])
						ok = ok && !destroyed[g] && !gone[g]
					}
					if ok {
						for s := p - 3; s <= p; s++ {
							made[string(y[s:s+4])] = true
						}
						for g := range gone {
							destroyed[g] = true
						}
						found = true
						break
					}
					y[p] = x[p]
				}
			}
			if !found {
				t.Fatalf("k=%d: found room for only %d substitutions", k, i)
			}
			p += 3 // p is one past the substitution: the next is four after it
		}
		q := string(y)
		gq := gramSetOf(q)
		if a, b, d := gramsLacking(&gx, &gq), gramsLacking(&gq, &gx), edit.Distance(x, q); a != 4*k || b != 0 || d != k {
			t.Fatalf("k=%d: the pair is %d edits and %d, %d grams apart; want %d and exactly %d, 0", k, d, a, b, k, 4*k)
		}
		pr := NewProbe(q, k)
		ms, err := w.Sweep(context.Background(), &pr, nil)
		if err != nil || len(ms) != 1 || ms[0].Dist != k || pr.Kept != 1 {
			t.Fatalf("k=%d: sweep of the read for its %d-substitution copy = %v, %v, %d kernel calls; want distance %d", k, k, ms, err, pr.Kept, k)
		}
	}
}

// TestGramStageCutOff pins where the stage stops running. The de Bruijn read
// holds all 256 grams, and the query — the read with a letter of every four
// turned into x, and a few x put in between where that ran out — none, so
// the pair is 256 grams apart: at k = gramSetBits/4 - 1 that is past the
// bound and the slot is dropped unread, at k = gramSetBits/4 no pair of sets
// can be and the stage is skipped. The query's x bytes are counted by
// neither word, so the count word passes.
func TestGramStageCutOff(t *testing.T) {
	const cut = gramSetBits / 4
	x := deBruijn4
	var q []byte
	replaced, run := 0, 0
	for i := 0; i < len(x); i++ {
		if run == 3 {
			q, run = append(q, 'x'), 0
			if replaced < cut-4 {
				replaced++
				continue // x[i] is replaced
			}
		}
		q, run = append(q, x[i]), run+1
	}
	if g := gramSetOf(q); g != (gramSet{}) || countReject(countWord(x), countWord(q), cut-1) || len(q)-len(x) >= cut {
		t.Fatalf("query %q: grams %x, count word or length window rejects it at k = %d", q, g, cut-1)
	}
	w := NewWords([]string{x})
	for _, tc := range []struct {
		k    int
		kept uint64
	}{
		{cut - 1, 0},
		{cut, 1},
	} {
		pr := NewProbe(string(q), tc.k)
		ms, err := w.Sweep(context.Background(), &pr, nil)
		if d := edit.Distance(x, string(q)); err != nil || len(ms) != 0 || d <= cut {
			t.Fatalf("k=%d: %v, %v; the pair (distance %d) is farther apart than any k here", tc.k, ms, err, d)
		}
		if pr.Visited != 1 || pr.Passed != 1 || pr.Kept != tc.kept {
			t.Errorf("k=%d: visited %d, passed %d, kept %d; want 1, 1, %d",
				tc.k, pr.Visited, pr.Passed, pr.Kept, tc.kept)
		}
	}
}

// TestGramStageStrength pins what the 4-gram set is for: on 10,000
// generated reads at k = 8 it lets through at most 2% of what the count word
// does (the 2-gram count word it replaced let through 35%). What passes it
// is mostly the reads overlapping the query's own at a shift of a few
// dozen letters, about as many on any corpus of the same coverage, while
// the count word's survivors grow with the corpus. Generated reads, the word
// and the sets are deterministic, so the counts repeat exactly.
func TestGramStageStrength(t *testing.T) {
	for _, seed := range []int64{7, 20130322} {
		data := dataset.DNAReads(10000, seed)
		w := NewWords(data)
		var visited, passed, kept uint64
		for _, q := range dataset.Queries(data, 100, 8, seed+8) {
			pr := NewProbe(q, 8)
			if _, err := w.Sweep(context.Background(), &pr, nil); err != nil {
				t.Fatal(err)
			}
			visited, passed, kept = visited+pr.Visited, passed+pr.Passed, kept+pr.Kept
		}
		t.Logf("seed %d: %d slots, %d past the count word, %d past the 4-gram set (%.4f)",
			seed, visited, passed, kept, float64(kept)/float64(passed))
		if passed == 0 || float64(kept) > 0.02*float64(passed) {
			t.Errorf("seed %d: the 4-gram set kept %d of the count word's %d survivors, want at most 2%%", seed, kept, passed)
		}
	}
}

// TestSweepCarriesLengthBucket: the bucket carried along the survivor loop
// lands on the same bytes as the arena's own lookup, across empty buckets,
// block boundaries and windows clamped at either end.
func TestSweepCarriesLengthBucket(t *testing.T) {
	var data []string
	for i := 0; i < 3*ctxStride; i++ { // three lengths only, so the windows skip empty buckets
		data = append(data, strings.Repeat("ab", 1+i%3*4)+string(rune('a'+i%7)))
	}
	data = append(data, "", strings.Repeat("z", 90))
	w := NewWords(data)
	for _, q := range []string{"", "abc", data[0], data[1], data[2], strings.Repeat("ab", 6), strings.Repeat("z", 88), strings.Repeat("q", 200)} {
		for _, k := range []int{0, 1, 3, 9, 40} {
			pr := NewProbe(q, k)
			got, err := w.Sweep(context.Background(), &pr, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []Match
			for s := int32(0); s < int32(w.ar.Len()); s++ {
				if d := edit.Distance(q, string(slotBytes(w.ar, s))); d <= k {
					want = append(want, Match{ID: w.ar.ids[s], Dist: d})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("Sweep(%q, %d) returned %d matches, slot-order oracle %d", q, k, len(got), len(want))
			}
		}
	}
}

// TestFirstWordLoopsAgree: the two count-word loops — the branch on the
// reject and the branch-free store Sweep switches to in dense groups — pick
// the same survivors under every mask: the one blockMask computes, all ones,
// single blocks, alternating blocks (runs of one) and none, from the sparsest
// group to one in which every slot passes; every survivor lies in a block the
// mask holds and inside the window; and the switch happens: sweeps of
// generated reads at k = 8 pass more than an eighth of the words they read.
func TestFirstWordLoopsAgree(t *testing.T) {
	data := dataset.DNAReads(3000, 24)
	w := NewWords(data)
	var sparse, dense [ctxStride]int32
	var swept, passed uint64
	for _, q := range dataset.Queries(data, 20, 8, 24) {
		pr := NewProbe(q, 8)
		lo, hi := w.ar.SlotRange(pr.Lengths())
		blocks := (hi + blockSlots - 1) / blockSlots
		for _, slack := range []int{0, 1, 4, 8, 16, 100, math.MaxInt} {
			for g := lo / blockSlots; g < blocks; g += groupBlocks {
				nb := int(min(groupBlocks, blocks-g))
				all := uint64(1)<<nb - 1
				own := w.blockMask(g, nb, pr.cnt, slack)
				if slack == math.MaxInt && own != all {
					t.Fatalf("group %d: the summaries rejected blocks at an unbounded slack: %#x of %#x", g, own, all)
				}
				for _, mask := range []uint64{own, all, 1, all &^ (all >> 1), 0x5555555555555555 & all, 0xaaaaaaaaaaaaaaaa & all, 0} {
					base := g * blockSlots
					n, read := w.maskedWords(base, lo, hi, mask, pr.cnt, slack, false, &sparse)
					m, readDense := w.maskedWords(base, lo, hi, mask, pr.cnt, slack, true, &dense)
					if n != m || read != readDense || !slices.Equal(sparse[:n], dense[:m]) {
						t.Fatalf("slack %d group %d mask %#x: %d survivors of %d with the branch, %d of %d without",
							slack, g, mask, n, read, m, readDense)
					}
					want := 0 // the slots of the mask's blocks inside the window
					for j := 0; j < nb; j++ {
						if mask>>j&1 == 1 {
							want += int(min(base+int32(j+1)*blockSlots, hi) - max(base+int32(j)*blockSlots, lo))
						}
					}
					if read != want {
						t.Fatalf("slack %d group %d mask %#x: read %d slots, the mask holds %d", slack, g, mask, read, want)
					}
					for i, off := range sparse[:n] {
						if s := base + off; mask>>(off/blockSlots)&1 == 0 || s < lo || s >= hi || (i > 0 && off <= sparse[i-1]) {
							t.Fatalf("slack %d group %d mask %#x: survivor %d (slot %d) outside the mask or the window [%d, %d), or out of order",
								slack, g, mask, off, s, lo, hi)
						}
					}
					if slack == math.MaxInt && n != read {
						t.Fatalf("group %d: %d of %d slots pass at an unbounded slack", g, n, read)
					}
				}
			}
		}
		if _, err := w.Sweep(context.Background(), &pr, nil); err != nil {
			t.Fatal(err)
		}
		swept, passed = swept+pr.Swept, passed+pr.Passed
	}
	if passed*8 <= swept {
		t.Fatalf("%d of %d words read passed at k = 8: too sparse for a sweep to reach the dense loop", passed, swept)
	}
}
