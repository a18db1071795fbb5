package edit

import (
	"strings"
	"testing"
)

// Allocation regression guards for the paper's §3.4 claim ("simple data
// types", flat reusable buffers): after warm-up, the scratch kernels must
// not allocate per comparison.

func TestScratchKernelsZeroAlloc(t *testing.T) {
	a := "magdeburgerstrasse"
	b := "magdeburgstrasse"
	var s Scratch
	s.PaperBoundedDistance(a, b, 3) // warm up the buffers
	if n := testing.AllocsPerRun(200, func() {
		s.PaperBoundedDistance(a, b, 3)
	}); n != 0 {
		t.Errorf("Scratch.PaperBoundedDistance allocates %.1f per call, want 0", n)
	}
}

func TestStepRowZeroAllocWithBuffer(t *testing.T) {
	q := "berlin"
	row := InitialRow(q)
	buf := make([]int, len(q)+1)
	if n := testing.AllocsPerRun(200, func() {
		StepRow(q, row, 'x', buf)
	}); n != 0 {
		t.Errorf("StepRow with buffer allocates %.1f per call, want 0", n)
	}
}

// The compiled kernels sit inside every scan's candidate loop: on a read-sized
// pattern neither the band kernel (k <= 31) nor the blocked kernel with a
// warmed scratch (k = 32) may allocate.
func TestCompiledKernelsZeroAlloc(t *testing.T) {
	read := strings.Repeat("ACGTTGCA", 13)[:100]
	cand := []byte(read[:50] + "T" + read[50:99])
	p := CompileMyers(read)
	var scratch MyersScratch
	for _, k := range []int{0, 8, 31, 32} {
		p.BoundedDistanceBytes(cand, k, &scratch) // warm up the scratch
		if n := testing.AllocsPerRun(200, func() {
			p.BoundedDistanceBytes(cand, k, &scratch)
		}); n != 0 {
			t.Errorf("BoundedDistanceBytes at k=%d allocates %.1f per call, want 0", k, n)
		}
	}
}
