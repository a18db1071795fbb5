package edit

import (
	"math/rand"
	"strings"
	"testing"
)

// checkCompiled compares the compiled kernels with the DP oracle for one pair
// in both operand orders at every threshold in ks.
func checkCompiled(t *testing.T, a, b string, ks []int) {
	t.Helper()
	want := Distance(a, b)
	var scratch MyersScratch
	for _, pair := range [2][2]string{{a, b}, {b, a}} {
		p := CompileMyers(pair[0])
		for _, k := range ks {
			d, ok := p.BoundedDistanceBytes([]byte(pair[1]), k, &scratch)
			if ok != (want <= k) || (ok && d != want) {
				t.Fatalf("BoundedDistanceBytes(%q, %q, k=%d) = (%d,%v), distance %d", pair[0], pair[1], k, d, ok, want)
			}
		}
	}
}

// TestBandKernelReadLike drives the band kernel with what a read aligner
// sees: overlapping windows of one genome (so the optimal alignment is a pure
// shift along one edge of the band), point mutations, N no-calls, and bytes
// >= 0x80, at thresholds on both sides of the band/blocked dispatch.
func TestBandKernelReadLike(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	genome := make([]byte, 600)
	for i := range genome {
		genome[i] = "ACGT"[r.Intn(4)]
	}
	// The same pairs over bytes >= 0x80, edit structure unchanged.
	high := strings.NewReplacer("A", "\x80", "T", "\xc3", "N", "\xff")
	ks := []int{0, 1, 4, 8, 16, 30, 31, 32, 33, 40}
	for _, m := range []int{1, 2, 31, 63, 64, 65, 100, 127, 128, 129, 200} {
		for trial := 0; trial < 12; trial++ {
			at := r.Intn(len(genome) - m - 40)
			read := genome[at : at+m]
			// Shifted overlap: same length, start moved by up to 35.
			shift := r.Intn(36)
			checkCompiled(t, string(read), string(genome[at+shift:at+shift+m]), ks)
			// Shorter and longer overlaps: |m-n| reaches and passes k.
			grow := r.Intn(36)
			checkCompiled(t, string(read), string(genome[at:at+m+grow]), ks)
			// Mutated copies; mutate's alphabet brings N no-calls and
			// letters outside the genome's.
			noisy := mutate(r, string(read), r.Intn(12))
			checkCompiled(t, string(read), noisy, ks)
			checkCompiled(t, high.Replace(string(read)), high.Replace(noisy), ks)
		}
	}
}

// TestBandKernelDispatchEdges pins the cases the dispatch and the window
// arithmetic turn on.
func TestBandKernelDispatchEdges(t *testing.T) {
	ks := []int{0, 1, 30, 31, 32, 33}
	rep := strings.Repeat
	cases := [][2]string{
		{"a", "a"}, {"a", "b"}, {"a", rep("a", 32)}, {"b", rep("a", 33)}, // n = 1
		{rep("a", 64), rep("a", 64)}, {rep("a", 65), rep("a", 64)},
		{rep("ab", 64), rep("ab", 64)}, {rep("ab", 64) + "a", rep("ba", 64)},
		{rep("ACGT", 25), rep("ACGT", 25)[31:]},              // |m-n| = 31: diagonal on the band's edge
		{rep("ACGT", 25), rep("ACGT", 25)[32:]},              // |m-n| = 32: first one for the blocked kernel
		{rep("ACGT", 25) + rep("T", 31), rep("ACGT", 25)},    // same, pattern longer
		{rep("A", 100), rep("C", 100)},                       // every cell a mismatch
		{rep("A", 100), rep("A", 69) + rep("C", 31)},         // exactly 31
		{rep("A", 100), rep("A", 68) + rep("C", 32)},         // exactly 32
		{rep("AC", 50), rep("CA", 50)},                       // distance 2 by a shift
		{rep("\xff", 70), rep("\xff", 35) + rep("\x00", 35)}, // extreme byte values
	}
	for _, c := range cases {
		checkCompiled(t, c[0], c[1], ks)
	}
}

// TestBandKernelExhaustive checks every pair of strings up to length 6 over
// two letters at every threshold: all the places a window can hang over the
// top or the bottom of a small matrix.
func TestBandKernelExhaustive(t *testing.T) {
	var all []string
	for n := 0; n <= 6; n++ {
		for v := 0; v < 1<<n; v++ {
			s := make([]byte, n)
			for i := range s {
				s[i] = "ab"[v>>i&1]
			}
			all = append(all, string(s))
		}
	}
	ks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, a := range all {
		for _, b := range all {
			if a <= b {
				checkCompiled(t, a, b, ks)
			}
		}
	}
}

// TestBandStateMatchesFullDP steps the band state one text byte at a time
// and compares every column with the full DP row (StepRow): an in-band cell
// whose value is at most k reads exactly that value and one above k reads
// above k; the same holds for the band's row minimum and for D[m][d]; and
// StepBand calls the column dead exactly when the row minimum exceeds k, and
// stops stepping once the column is past m+k. Then the whole text goes
// through as one label aimed at its own length, which must survive exactly
// when the text is within k. Patterns reach 200 bytes (one, two and four
// words of the match table) and k runs over the whole band, 0..31.
func TestBandStateMatchesFullDP(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 800; trial++ {
		k := trial % (MaxBandK + 1)
		alpha := "ACGT"[:1+r.Intn(4)]
		q := randomString(r, alpha, 200)
		text := mutate(r, q, r.Intn(k+4))
		if r.Intn(4) == 0 {
			text = randomString(r, alpha, 200)
		}
		p := CompileMyers(q)
		m := len(q)
		full := InitialRow(q)
		band := StartBand(k)
		for d := 1; d <= len(text); d++ {
			full = StepRow(q, full, text[d-1], nil)
			var alive bool
			band, alive = p.StepBand(band, []byte{text[d-1]}, d-1, k, d, 1<<30)
			if d > m+k {
				if alive {
					t.Fatalf("column %d of m=%d k=%d is past the band but alive", d, m, k)
				}
				break
			}
			trueMin, bandMin := 1<<30, 1<<30
			for _, v := range full {
				trueMin = min(trueMin, v)
			}
			for i := max(0, d-k); i <= min(m, d+k); i++ {
				got := band.cell(i - d + k)
				if (full[i] <= k && got != full[i]) || (full[i] > k && got <= k) {
					t.Fatalf("q=%q text=%q k=%d: D[%d][%d] reads %d, DP %d", q, text, k, i, d, got, full[i])
				}
				bandMin = min(bandMin, got)
			}
			if (trueMin <= k && bandMin != trueMin) || (trueMin > k && bandMin <= k) {
				t.Fatalf("q=%q text=%q k=%d column %d: band minimum %d, row minimum %d", q, text, k, d, bandMin, trueMin)
			}
			if alive != (trueMin <= k) {
				t.Fatalf("q=%q text=%q k=%d column %d: alive=%v, row minimum %d", q, text, k, d, alive, trueMin)
			}
			if got, ok := p.BandDistance(band, d, k); ok != (full[m] <= k) || (ok && got != full[m]) {
				t.Fatalf("q=%q text=%q k=%d: BandDistance at %d = (%d,%v), D[m][d] %d", q, text, k, d, got, ok, full[m])
			}
		}
		want := Distance(q, text)
		end, ok := p.StepBand(StartBand(k), []byte(text), 0, k, len(text), len(text))
		if ok != (want <= k) {
			t.Fatalf("q=%q text=%q k=%d: the label aimed at its own length survives=%v, distance %d", q, text, k, ok, want)
		}
		if got, dok := p.BandDistance(end, len(text), k); ok && (!dok || got != want) {
			t.Fatalf("q=%q text=%q k=%d: BandDistance = (%d,%v), distance %d", q, text, k, got, dok, want)
		}
	}
}
