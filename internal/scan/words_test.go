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
func exhaustive(t *testing.T, alphabet string, word func(string) uint64, reject func(a, b uint64, k int) bool) {
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
				t.Fatalf("%q, %q at distance %d are rejected at k=%d (%#x, %#x)", a, b, d, d, wa, wb)
			}
			if reject(wa, wb, 0) != (wa != wb) {
				t.Fatalf("%q, %q: rejection at k=0 must be word inequality (%#x, %#x)", a, b, wa, wb)
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
// slot when either side has more than 2k pair occurrences in surplus.
func gramReject(a, b uint64, k int) bool {
	return keep(gramSurplus(a, b), gramSurplus(b, a), 2*k) == 0
}

// TestGramWordLayout pins the encoding: field 4*first + second over ACGT,
// saturation at 15, and nothing counted for a pair that touches N or a byte
// outside the alphabet.
func TestGramWordLayout(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want uint64
	}{
		{"", 0}, {"A", 0}, {"N", 0}, {"ANA", 0}, {"AxA", 0}, {"a\xffc", 0},
		{"AA", 1},
		{"AC", 1 << 4},
		{"TT", 1 << 60},
		{"ACGT", 1<<4 | 1<<(4*6) | 1<<(4*11)},
		{"ACNGT", 1<<4 | 1<<(4*11)},
		{strings.Repeat("A", 16), 15},
		{strings.Repeat("A", 300), 15},
		{strings.Repeat("AC", 40), 15<<4 | 15<<(4*4)},
		{strings.Repeat(deBruijn, 16), 1<<64 - 1},
	} {
		if got := gramWord(tc.s); got != tc.want {
			t.Errorf("gramWord(%.20q) = %#x, want %#x", tc.s, got, tc.want)
		}
		if got := gramWord([]byte(tc.s)); got != tc.want {
			t.Errorf("gramWord([]byte(%.20q)) = %#x, want %#x", tc.s, got, tc.want)
		}
	}
}

// deBruijn holds every ordered pair over ACGT exactly once when read as a
// cycle: sixteen repeats saturate all sixteen fields.
const deBruijn = "AACAGATCCGCTGGTT"

// TestGramSurplusAgainstScalar holds the two-halves SWAR sum against a loop
// over the sixteen fields, on random words and on the extremes.
func TestGramSurplusAgainstScalar(t *testing.T) {
	scalar := func(a, b uint64) (n int) {
		for f := 0; f < gramFields; f++ {
			x, y := int(a>>(gramBits*f)&gramMax), int(b>>(gramBits*f)&gramMax)
			n += max(x-y, 0)
		}
		return n
	}
	r := rand.New(rand.NewSource(23))
	words := []uint64{0, 1<<64 - 1, gramLanes, gramLanes << gramBits, 1, 1 << 63}
	for len(words) < 400 {
		words = append(words, r.Uint64(), r.Uint64()&r.Uint64(), r.Uint64()|r.Uint64())
	}
	for _, a := range words {
		for _, b := range words {
			if got, want := gramSurplus(a, b), scalar(a, b); got != want {
				t.Fatalf("gramSurplus(%#x, %#x) = %d, want %d", a, b, got, want)
			}
		}
	}
	if got := gramSurplus(1<<64-1, 0); got != gramCeiling {
		t.Errorf("sixteen saturated fields over none show %d, want gramCeiling = %d", got, gramCeiling)
	}
	for _, tc := range []struct{ ab, ba, bound, want int }{
		{0, 0, 0, 1}, {1, 0, 0, 0}, {0, 1, 0, 0}, {16, 16, 16, 1}, {17, 0, 16, 0}, {0, 17, 16, 0},
		{gramCeiling, gramCeiling, gramCeiling, 1}, {fieldMax, fieldMax, math.MaxInt, 1},
	} {
		if got := keep(tc.ab, tc.ba, tc.bound); got != tc.want {
			t.Errorf("keep(%d, %d, %d) = %d, want %d", tc.ab, tc.ba, tc.bound, got, tc.want)
		}
	}
}

// TestGramWordExhaustiveSmallAlphabet: {A, C, N} — four of the sixteen pairs
// counted, five touching N and left out.
func TestGramWordExhaustiveSmallAlphabet(t *testing.T) {
	exhaustive(t, "ACN", gramWord[string], gramReject)
}

// TestGramStageNeverRejectsWithinK is the soundness property of the second
// word: a stored all-DNA string and a query at most k edits away are never
// told apart by their gram words at bound 2k, whichever operand is which,
// and a one-slot arena swept for that query returns the string — for k up to
// the last threshold at which the stage runs and the first at which it no
// longer does. The bases are the shapes the bound's argument leans on:
// homopolymer runs that saturate AA, reads with N, lengths 0 and 1, strings
// past 240 letters with every field saturated; the edits draw on
// editAlphabet, so the query may hold bytes no field counts.
func TestGramStageNeverRejectsWithinK(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	bases := append(dataset.DNAReads(60, 23), "", "A", "N", "AA", "ACGTN",
		strings.Repeat("A", 15), strings.Repeat("A", 16), strings.Repeat("A", 40)+"C"+strings.Repeat("A", 40),
		strings.Repeat("ANNA", 20), strings.Repeat("N", 50),
		strings.Repeat(deBruijn, 15), strings.Repeat(deBruijn, 16), strings.Repeat(deBruijn, 20)+"NNAC")
	ks := []int{0, 1, 2, 4, 8, 16, 31, 32, gramCeiling/2 - 1, gramCeiling / 2}
	for round := 0; round < 6; round++ {
		for _, x := range bases {
			for _, k := range ks {
				q := homopolymerEdit(x, k)
				if round%2 == 0 {
					q = mutate(r, x, r.Intn(k+1))
				}
				gx, gq := gramWord(x), gramWord([]byte(q))
				if gramReject(gq, gx, k) || gramReject(gx, gq, k) {
					t.Fatalf("%.40q and %.40q are within %d edits (distance %d) but their gram words %#x, %#x are rejected",
						x, q, k, edit.Distance(x, q), gx, gq)
				}
				w := NewWords([]string{x})
				if w.grams == nil {
					t.Fatalf("%.40q: an all-DNA arena must have its gram slab", x)
				}
				pr := NewProbe(q, k)
				ms, err := w.Sweep(context.Background(), &pr, k, nil)
				if want := edit.Distance(x, q); err != nil || len(ms) != 1 || ms[0].Dist != want {
					t.Fatalf("sweep of %.40q for %.40q at k=%d = %v, %v; want distance %d", x, q, k, ms, err, want)
				}
			}
		}
	}
}

// homopolymerEdit overwrites the first min(k, len(s)) letters of s with T:
// exactly that many substitutions at most, and the edit that moves the most
// pair occurrences into one field.
func homopolymerEdit(s string, k int) string {
	n := min(k, len(s))
	return strings.Repeat("T", n) + s[n:]
}

// TestGramStageCutOff pins where the stage stops running. Every pair
// saturated on one side and absent on the other is the most two gram words
// can differ by, gramCeiling; at k = gramCeiling/2 - 1 that is still past
// the bound and the slot is dropped unread, at k = gramCeiling/2 no pair of
// words can be and the stage is skipped — as it is at the ablation's slack.
// The query's x bytes are counted by neither word, so the count word passes.
func TestGramStageCutOff(t *testing.T) {
	w := NewWords([]string{strings.Repeat(deBruijn, 16)})
	q := strings.Repeat("AxCxGxTx", 40)
	for _, tc := range []struct {
		k, slack int
		kept     uint64
	}{
		{gramCeiling/2 - 1, gramCeiling/2 - 1, 0},
		{gramCeiling / 2, gramCeiling / 2, 1},
		{100, 100, 0},
		{100, math.MaxInt, 1},
	} {
		pr := NewProbe(q, tc.k)
		ms, err := w.Sweep(context.Background(), &pr, tc.slack, nil)
		if err != nil || len(ms) != 0 {
			t.Fatalf("k=%d: %v, %v; the pair is farther apart than any k here", tc.k, ms, err)
		}
		if pr.Visited != 1 || pr.Passed != 1 || pr.Kept != tc.kept {
			t.Errorf("k=%d slack=%d: visited %d, passed %d, kept %d; want 1, 1, %d",
				tc.k, tc.slack, pr.Visited, pr.Passed, pr.Kept, tc.kept)
		}
	}
}

// TestGramStageStrength pins what the second word is for: on generated
// reads at k = 8 it lets through well under half of what the count word
// does. Generated reads and both words are deterministic, so the counts
// repeat exactly.
func TestGramStageStrength(t *testing.T) {
	for _, seed := range []int64{7, 20130322} {
		data := dataset.DNAReads(2000, seed)
		w := NewWords(data)
		var visited, passed, kept uint64
		for _, q := range dataset.Queries(data, 100, 8, seed+8) {
			pr := NewProbe(q, 8)
			if _, err := w.Sweep(context.Background(), &pr, 8, nil); err != nil {
				t.Fatal(err)
			}
			visited, passed, kept = visited+pr.Visited, passed+pr.Passed, kept+pr.Kept
		}
		t.Logf("seed %d: %d slots, %d past the count word, %d past the gram word (%.3f)",
			seed, visited, passed, kept, float64(kept)/float64(passed))
		if passed == 0 || float64(kept) > 0.45*float64(passed) {
			t.Errorf("seed %d: the gram word kept %d of the count word's %d survivors, want at most 45%%", seed, kept, passed)
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
			got, err := w.Sweep(context.Background(), &pr, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []Match
			for s := int32(0); s < int32(w.ar.Len()); s++ {
				if d := edit.Distance(q, string(w.ar.SlotBytes(s))); d <= k {
					want = append(want, Match{ID: w.ar.SlotID(s), Dist: d})
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
					t.Fatalf("group %d: the summaries rejected blocks at the ablation's slack: %#x of %#x", g, own, all)
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
						t.Fatalf("group %d: %d of %d slots pass at the ablation's slack", g, n, read)
					}
				}
			}
		}
		if _, err := w.Sweep(context.Background(), &pr, 8, nil); err != nil {
			t.Fatal(err)
		}
		swept, passed = swept+pr.Swept, passed+pr.Passed
	}
	if passed*8 <= swept {
		t.Fatalf("%d of %d words read passed at k = 8: too sparse for a sweep to reach the dense loop", passed, swept)
	}
}
