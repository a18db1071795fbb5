package scan

import (
	"math/rand"
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
