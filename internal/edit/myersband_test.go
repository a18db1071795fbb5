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
			d, ok := p.BoundedDistance(pair[1], k, &scratch)
			if ok != (want <= k) || (ok && d != want) {
				t.Fatalf("BoundedDistance(%q, %q, k=%d) = (%d,%v), distance %d", pair[0], pair[1], k, d, ok, want)
			}
			if bd, bok := p.BoundedDistanceBytes([]byte(pair[1]), k, &scratch); bok != ok || bd != d {
				t.Fatalf("BoundedDistanceBytes(%q, %q, k=%d) = (%d,%v), string form (%d,%v)", pair[0], pair[1], k, bd, bok, d, ok)
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
