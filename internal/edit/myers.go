package edit

// Myers bit-parallel edit distance (Gene Myers, "A fast bit-vector algorithm
// for approximate string matching based on dynamic programming", JACM 1999).
// The paper under reproduction does not use it — it stops at the banded DP —
// but the ablation benchmarks (DESIGN.md §5) quantify how much further a
// sequential scan can be pushed, which strengthens the paper's hypothesis 2
// on short strings.

// MyersDistance computes the exact edit distance between a and b, rebuilding
// the match table for every pair: the per-pair baseline of the ablation. It
// dispatches to the single-word kernel when the shorter string fits in 64
// symbols and to the blocked multi-word kernel otherwise. Scans do not call
// it; they compile the query once (CompileMyers, myersquery.go) and run the
// bounded band or blocked kernel over every candidate.
func MyersDistance(a, b string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	// a is now the shorter string (the "pattern").
	switch {
	case len(a) == 0:
		return len(b)
	case len(a) <= 64:
		return myers64(a, b)
	default:
		return myersBlock(a, b)
	}
}

// MyersWithinK reports whether ed(a, b) <= k using the bounded bit-parallel
// kernel: the length pre-filter rejects first, and the scan abandons the pair
// as soon as the score cannot come back within k (it previously computed the
// full distance, so the ablation benchmarks overstated the kernel's cost).
func MyersWithinK(a, b string, k int) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	_, ok := CompileMyers(a).BoundedDistance(b, k, nil)
	return ok
}

// peqTable builds the match bit-vectors for a pattern of length <= 64:
// bit i of peq[c] is set iff pattern[i] == c.
func peqTable(pattern string, peq *[256]uint64) {
	for i := 0; i < len(pattern); i++ {
		peq[pattern[i]] |= 1 << uint(i)
	}
}

// myers64 is the single-word kernel for len(a) <= 64.
func myers64(a, b string) int {
	var peq [256]uint64
	peqTable(a, &peq)
	m := len(a)
	pv := ^uint64(0)
	mv := uint64(0)
	score := m
	last := uint64(1) << uint(m-1)
	for i := 0; i < len(b); i++ {
		eq := peq[b[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		}
		if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// myersBlock is the blocked (multi-word) kernel for patterns longer than 64
// symbols. It maintains one vertical-delta word pair per 64-symbol block and
// propagates the horizontal deltas between blocks.
func myersBlock(a, b string) int {
	m := len(a)
	w := (m + 63) / 64
	peq := make([][256]uint64, w)
	for i := 0; i < m; i++ {
		peq[i/64][a[i]] |= 1 << uint(i%64)
	}
	pv := make([]uint64, w)
	mv := make([]uint64, w)
	for i := range pv {
		pv[i] = ^uint64(0)
	}
	score := m
	lastBits := uint(m - (w-1)*64) // symbols in the last block
	last := uint64(1) << (lastBits - 1)
	for i := 0; i < len(b); i++ {
		c := b[i]
		// hin is the horizontal delta (-1, 0, +1) entering the current block
		// from the block above. The top DP boundary is M[0][j] = j, so the
		// delta entering block 0 is always +1.
		hin := 1
		for bl := 0; bl < w; bl++ {
			eq := peq[bl][c]
			pvb, mvb := pv[bl], mv[bl]
			xv := eq | mvb
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvb) + pvb) ^ pvb) | eq
			ph := mvb | ^(xh | pvb)
			mh := pvb & xh
			hiBit := uint64(1) << 63
			if bl == w-1 {
				hiBit = last
				if ph&hiBit != 0 {
					score++
				} else if mh&hiBit != 0 {
					score--
				}
			}
			hout := 0
			if ph&hiBit != 0 {
				hout = 1
			} else if mh&hiBit != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin > 0 {
				ph |= 1
			} else if hin < 0 {
				mh |= 1
			}
			pv[bl] = mh | ^(xv | ph)
			mv[bl] = ph & xv
			hin = hout
		}
	}
	return score
}
