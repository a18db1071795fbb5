package scan

import (
	"context"
	"math"
	"math/bits"
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

// countField returns field f of a count word, setField sets it.
func countField(x uint64, f int) int { return int(x >> (fieldBits * f) & (1<<fieldBits - 1)) }

func setField(x uint64, f, v int) uint64 {
	return x&^((1<<fieldBits-1)<<(fieldBits*f)) | uint64(v)<<(fieldBits*f)
}

// TestCountWordLayout: whatever countWord is given — bytes outside the
// alphabet, homopolymers past fieldMax, which saturate — every field holds
// its symbol's count capped at fieldMax, and bytes 5 to 7 are zero. The
// AVX-512 surplus sums all eight bytes of a word (VPSADBW) and the Go one
// the five fields, so a stray high byte would make them disagree silently,
// and a field past fieldMax would borrow across surplus's guard bit. On
// every pair of those words, surplus is the per-field sum it stands for,
// 5·fieldMax — past one byte — included.
func TestCountWordLayout(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	inputs := []string{"", "x", editAlphabet, strings.Repeat("\xff", 300), strings.Repeat("ACGNT", fieldMax+1)}
	for _, b := range "ACGNT" {
		for _, n := range []int{fieldMax - 1, fieldMax, fieldMax + 1, 2*fieldMax + 2, 1000} {
			inputs = append(inputs, strings.Repeat(string(b), n))
		}
	}
	for range 100 {
		s := make([]byte, r.Intn(3*fieldMax))
		heavy := "ACGNT"[r.Intn(dnaFields)] // one symbol drawn half the time, to saturate
		for i := range s {
			if s[i] = heavy; r.Intn(2) == 0 {
				s[i] = editAlphabet[r.Intn(len(editAlphabet))]
			}
		}
		inputs = append(inputs, string(s))
	}
	words := make([]uint64, len(inputs))
	for i, s := range inputs {
		w := countWord(s)
		if w>>(dnaFields*fieldBits) != 0 {
			t.Fatalf("count word of %.20q… (%d bytes) is %#x: bytes 5 to 7 are not zero", s, len(s), w)
		}
		for f := 0; f < dnaFields; f++ {
			if got, want := countField(w, f), min(strings.Count(s, "ACGNT"[f:f+1]), fieldMax); got != want {
				t.Fatalf("count word of %.20q… (%d bytes) holds %d in field %d, want %d", s, len(s), got, f, want)
			}
		}
		words[i] = w
	}
	for _, a := range words {
		for _, b := range words {
			want := 0
			for f := 0; f < dnaFields; f++ {
				want += max(countField(a, f)-countField(b, f), 0)
			}
			if got := surplus(a, b); got != want {
				t.Fatalf("surplus(%#x, %#x) = %d, want %d", a, b, got, want)
			}
		}
	}
	if got := surplus(fieldMax*fieldOnes, 0); got != 5*fieldMax {
		t.Errorf("surplus of every field at fieldMax over none = %d, want %d", got, 5*fieldMax)
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

// TestProbeSharedAcrossKinds holds one probe against a Words of each kind —
// names, whose words are occurrence bits, and reads, whose are symbol
// counts with 4-gram sets — and against a Loose holding words of each kind,
// in both orders, and checks that every answer and counter is what a fresh probe
// gives: a probe computes each kind of query word on first use, and the
// first kind it meets must not stand in for the other. A probe that meets
// one kind computes nothing of the others.
func TestProbeSharedAcrossKinds(t *testing.T) {
	names, reads := dataset.Cities(3000, 3), dataset.DNAReads(600, 3)
	ws := []*Words{NewWords(names), NewWords(reads)}
	if ws[0].counts || !ws[1].counts {
		t.Fatal("the names' words must be occurrence bits and the reads' counts")
	}
	var loose Loose
	for i, s := range append(append([]string(nil), names[:200]...), reads[:100]...) {
		loose.Add(int32(i), s)
	}
	queries := append(dataset.Queries(names, 6, 2, 4), dataset.Queries(reads, 6, 8, 4)...)
	type answer struct {
		ms                           []Match
		visited, swept, passed, kept uint64
	}
	sweep := func(w *Words, pr *Probe) answer {
		before := *pr
		ms, err := w.Sweep(context.Background(), pr, nil)
		if err != nil {
			t.Fatal(err)
		}
		return answer{ms, pr.Visited - before.Visited, pr.Swept - before.Swept, pr.Passed - before.Passed, pr.Kept - before.Kept}
	}
	rejects := func(pr *Probe) (out []bool) {
		for _, e := range loose.entries {
			out = append(out, pr.rejects(e.word, e.counts))
		}
		return out
	}
	for _, q := range queries {
		for _, k := range []int{0, 1, 3, 8} {
			var want []answer
			for _, w := range ws {
				pr := NewProbe(q, k)
				want = append(want, sweep(w, &pr))
				own := uint8(haveOcc)
				if w.counts {
					own = haveCount | haveGrams
				}
				if pr.have&^own != 0 {
					t.Fatalf("Sweep(%q, %d) over counts=%v computed query words %03b", q, k, w.counts, pr.have)
				}
			}
			fresh := NewProbe(q, k)
			wantRejects := rejects(&fresh)
			for _, order := range [][]int{{0, 1}, {1, 0}} {
				pr := NewProbe(q, k)
				for _, i := range order {
					if got := sweep(ws[i], &pr); !slices.Equal(got.ms, want[i].ms) || got.visited != want[i].visited ||
						got.swept != want[i].swept || got.passed != want[i].passed || got.kept != want[i].kept {
						t.Fatalf("Sweep(%q, %d) over words %d after %v: %+v, a fresh probe %+v", q, k, i, order, got, want[i])
					}
				}
				if got := rejects(&pr); !slices.Equal(got, wantRejects) {
					t.Fatalf("rejects(%q, %d) after sweeping %v differs from a fresh probe's", q, k, order)
				}
			}
		}
	}
}

// TestCountWordSurvivors: on count words maskedWords leaves, under every
// mask — the one blockMask computes, all ones, single blocks, alternating
// blocks and none — exactly the slots of the kept blocks inside the window
// that the count word and the 4-gram set both let through, in slot order;
// reads the words the mask holds; counts as passed those the count word
// lets through; and keeps every slot of the window at an unbounded slack,
// where the summaries drop no block either.
func TestCountWordSurvivors(t *testing.T) {
	data := dataset.DNAReads(3000, 24)
	w := NewWords(data)
	var surv [ctxStride]int32
	for _, q := range dataset.Queries(data, 20, 8, 24) {
		pr := NewProbe(q, 8)
		sq, gq := pr.word(true), pr.fourGrams()
		lo, hi := w.ar.slotRange(pr.lengths())
		blocks := (hi + blockSlots - 1) / blockSlots
		for _, slack := range []int{0, 1, 4, 8, 16, 100, math.MaxInt} {
			bound := 4 * min(slack, gramSetBits/4)
			for g := lo / blockSlots; g < blocks; g += groupBlocks {
				nb := int(min(groupBlocks, blocks-g))
				all := uint64(1)<<nb - 1
				own := w.blockMask(g, nb, sq, slack)
				if slack == math.MaxInt && own != all {
					t.Fatalf("group %d: the summaries rejected blocks at an unbounded slack: %#x of %#x", g, own, all)
				}
				for _, mask := range []uint64{own, all, 1, all &^ (all >> 1), 0x5555555555555555 & all, 0xaaaaaaaaaaaaaaaa & all, 0} {
					base := g * blockSlots
					n, passed, read := w.maskedWords(base, lo, hi, mask, sq, slack, gq, surv[:])
					if want := groupRead(int(min(base+ctxStride, hi)-base), mask, int(max(lo-base, 0))); read != want {
						t.Fatalf("slack %d group %d mask %#x: read %d slots, the mask holds %d", slack, g, mask, read, want)
					}
					var want []int32
					wantPassed := 0
					for s := max(base, lo); s < min(base+ctxStride, hi); s++ {
						if mask>>((s-base)/blockSlots)&1 == 0 || countReject(sq, w.sigs[s], slack) {
							continue
						}
						wantPassed++
						var gx gramSet
						for j := range gx {
							gx[j] = w.grams[gramAt(int(s))+j*blockSlots]
						}
						if keep(gramsLacking(gq, &gx), gramsLacking(&gx, gq), bound) == 1 {
							want = append(want, s-base)
						}
					}
					if passed != wantPassed || !slices.Equal(surv[:n], want) {
						t.Fatalf("slack %d group %d mask %#x: %d survivors of %d passed, want %d of %d",
							slack, g, mask, n, passed, len(want), wantPassed)
					}
					if slack == math.MaxInt && (n != read || passed != read) {
						t.Fatalf("group %d: %d (%d passed) of %d slots kept at an unbounded slack", g, n, passed, read)
					}
				}
			}
		}
	}
}

// groupRead is how many words maskedWords reads of a group: the slots of
// the blocks mask keeps, clamped to [from, size), counted one block at a time.
func groupRead(size int, mask uint64, from int) int {
	n := 0
	for j := 0; j < groupBlocks; j++ {
		if mask>>j&1 == 1 {
			n += max(min((j+1)*blockSlots, size)-max(j*blockSlots, from), 0)
		}
	}
	return n
}

// TestMaskedWordsGuard: the occurrence kernel checks no bounds, so
// maskedWords panics in Go, before the call, on a group the kernel would
// read past: a mask naming a block past the group's words (40 words are
// three blocks), or a window starting past the group's first block. A group
// inside the bounds goes through.
func TestMaskedWordsGuard(t *testing.T) {
	w := NewWords(dataset.Cities(40, 51))
	if w.counts {
		t.Fatal("city names got count words")
	}
	var surv [ctxStride]int32
	for _, tc := range []struct {
		lo     int32
		mask   uint64
		panics bool
	}{
		{0, 1 << 3, true},
		{0, 1<<63 | 1, true},
		{20, 2, true},
		{15, 7, false},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if got := strings.HasPrefix(msg, "scan: a group of 40 words"); got != tc.panics {
					t.Errorf("window from %d, mask %#x: guard panicked %v (%q), want %v", tc.lo, tc.mask, got, msg, tc.panics)
				}
			}()
			w.maskedWords(0, tc.lo, 40, tc.mask, 0, 3, nil, surv[:])
		}()
	}
}

// TestCountGroupGuard: the count-word kernel reads every 4-gram word of the
// blocks it is handed and checks no bounds either, so maskedWords panics in
// Go, before the call, when the group's 4-gram words end before its last
// block's do — and on a mask past the group's words, as on occurrence words.
// Whole 4-gram words go through.
func TestCountGroupGuard(t *testing.T) {
	w := NewWords(dataset.DNAReads(40, 52))
	if !w.counts || len(w.grams) != 3*4*blockSlots {
		t.Fatalf("40 reads: counts %v, %d 4-gram words; want count words and three padded blocks", w.counts, len(w.grams))
	}
	var surv [ctxStride]int32
	var gq gramSet
	for _, tc := range []struct {
		grams  int // how many of the 4-gram words the group keeps
		mask   uint64
		panics string
	}{
		{len(w.grams), 7, ""},
		{len(w.grams) - 1, 7, "scan: a group of 40 words with 191 4-gram words"},
		{len(w.grams) - 4*blockSlots, 1, "scan: a group of 40 words with 128 4-gram words"},
		{len(w.grams), 1 << 3, "scan: a group of 40 words from 0 with mask 0x8"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != tc.panics {
					t.Errorf("%d 4-gram words, mask %#x: guard panicked %q, want %q", tc.grams, tc.mask, msg, tc.panics)
				}
			}()
			cut := &Words{sigs: w.sigs, grams: w.grams[:tc.grams], counts: true}
			cut.maskedWords(0, 0, 40, tc.mask, 0, math.MaxInt, &gq, surv[:])
		}()
	}
}

// gramsLacking counts the grams of a that b lacks.
func gramsLacking(a, b *gramSet) int {
	return bits.OnesCount64(a[0]&^b[0]) + bits.OnesCount64(a[1]&^b[1]) +
		bits.OnesCount64(a[2]&^b[2]) + bits.OnesCount64(a[3]&^b[3])
}
