package scan

import (
	"testing"

	"simsearch/internal/edit"
)

// FuzzGramSetBound is the q-gram lemma the sweep's 4-gram stage rests on: a
// read and its mutation by a few edits each have at most four times their
// distance in grams the other lacks. The read's bytes are mapped onto
// ACGTN; each three bytes of edits are one insertion, deletion or
// substitution of any byte, N and bytes outside the alphabet included.
func FuzzGramSetBound(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACCA"), []byte{0, 3, 'G', 1, 7, 0, 2, 0, 'N'})
	f.Add([]byte(deBruijn4), []byte{2, 3, 'A', 2, 7, 'C', 2, 11, 'T'})
	f.Add([]byte("AAAAAAAAAAAA"), []byte{2, 5, 'x', 0, 0, 'T'})
	f.Fuzz(func(t *testing.T, read, edits []byte) {
		if len(read) > 512 || len(edits) > 3*64 {
			return
		}
		x := make([]byte, len(read))
		for i, b := range read {
			x[i] = "ACGTN"[b%5]
		}
		y := append([]byte(nil), x...)
		for i := 0; i+3 <= len(edits); i += 3 {
			op, c := edits[i]%3, edits[i+2]
			switch p := int(edits[i+1]); {
			case op == 0 || len(y) == 0: // insert
				p %= len(y) + 1
				y = append(y[:p], append([]byte{c}, y[p:]...)...)
			case op == 1: // delete
				p %= len(y)
				y = append(y[:p], y[p+1:]...)
			default: // substitute
				y[p%len(y)] = c
			}
		}
		gx, gy := gramSetOf(x), gramSetOf(y)
		d := edit.Distance(string(x), string(y))
		if a, b := gramsLacking(&gx, &gy), gramsLacking(&gy, &gx); a > 4*d || b > 4*d {
			t.Fatalf("%q and %q are %d edits apart, their 4-gram sets %d and %d, past %d", x, y, d, a, b, 4*d)
		}
	})
}
