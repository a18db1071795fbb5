package edit

// Query-compiled Myers kernel: the match table is built once per query and
// then streamed over every candidate, instead of being rebuilt for every pair
// as MyersDistance does. This is the amortization that makes the bit-parallel
// kernel viable on the serving path — on the city-name workload the table
// build costs as much as scanning a whole candidate.
//
// Two bounded kernels read that one table. For k <= maxBandK the diagonal-band
// kernel (myersband.go) slides a single 64-bit window down the DP matrix and
// drops a candidate the first column its target diagonal exceeds k. Larger
// thresholds keep the blocked column kernel below, whose abandon watches the
// bottom row: after column j the score can still decrease by at most one per
// remaining text symbol, so a candidate is dropped once score - (n-1-j) > k.
//
// The kernels are generic over ~string | ~[]byte so the arena scan
// (internal/scan) can stream packed byte ranges through them with no
// per-candidate string conversion.

// MyersPattern is a query compiled for repeated bit-parallel distance
// computations against many candidate strings. The compiled table is
// read-only after CompileMyers, so one pattern may be shared by any number of
// goroutines; only the blocked kernel (k > maxBandK) needs a per-goroutine
// MyersScratch.
type MyersPattern struct {
	text string
	m    int
	// class maps a text byte to its row of bits. Bytes that do not occur in
	// the pattern share row 0, which stays all zero, so the table is sized by
	// the pattern's alphabet and not by 256.
	class [256]uint16
	// bits holds one row of stride = words+2 words per class: bit 64+i of a
	// row is set iff pattern[i] belongs to the class. The zero word on each
	// side lets the band kernel cut a 64-bit window that hangs over either
	// end of the pattern with no edge case; the blocked kernel reads words
	// 1..words.
	bits   []uint64
	stride int
	// last is the bit of the pattern's final symbol within its word.
	last uint64
}

// MyersScratch holds the per-goroutine vertical-delta words the blocked
// kernel needs. The zero value is ready to use; the band kernel never touches
// it.
type MyersScratch struct {
	pv, mv []uint64
}

// CompileMyers builds the match table for pattern once. The returned
// pattern is immutable and safe for concurrent use.
func CompileMyers(pattern string) *MyersPattern {
	p := &MyersPattern{text: pattern, m: len(pattern)}
	p.stride = (p.m+63)/64 + 2
	rows := 1
	for i := 0; i < p.m; i++ {
		if c := pattern[i]; p.class[c] == 0 {
			p.class[c] = uint16(rows)
			rows++
		}
	}
	p.bits = make([]uint64, rows*p.stride)
	for i := 0; i < p.m; i++ {
		p.bits[int(p.class[pattern[i]])*p.stride+1+i>>6] |= 1 << uint(i&63)
	}
	if p.m > 0 {
		p.last = 1 << uint((p.m-1)&63)
	}
	return p
}

// Len returns the pattern length in bytes.
func (p *MyersPattern) Len() int { return p.m }

// Text returns the compiled pattern string.
func (p *MyersPattern) Text() string { return p.text }

// Distance computes the exact edit distance between the pattern and b.
// A nil scratch is valid (the blocked kernel then allocates).
func (p *MyersPattern) Distance(b string, s *MyersScratch) int {
	// With k = m+n the bound can never fire and ok is always true.
	d, _ := boundedMyers(p, b, p.m+len(b), s)
	return d
}

// BoundedDistance reports the edit distance between the pattern and b when it
// is <= k, abandoning the candidate as early as possible: the length filter
// rejects before any column, and the kernel stops at the first column that
// proves the distance exceeds k. Safe for concurrent use when k <= 31; larger
// thresholds need a per-goroutine scratch (nil allocates).
func (p *MyersPattern) BoundedDistance(b string, k int, s *MyersScratch) (int, bool) {
	return boundedMyers(p, b, k, s)
}

// BoundedDistanceBytes is BoundedDistance over a byte slice, for callers that
// hold candidates in a packed buffer.
func (p *MyersPattern) BoundedDistanceBytes(b []byte, k int, s *MyersScratch) (int, bool) {
	return boundedMyers(p, b, k, s)
}

// boundedMyers dispatches to the right kernel after the length filter and the
// degenerate cases.
func boundedMyers[T ~string | ~[]byte](p *MyersPattern, b T, k int, s *MyersScratch) (int, bool) {
	if k < 0 {
		return 0, false
	}
	d := p.m - len(b)
	if d < 0 {
		d = -d
	}
	if d > k {
		return 0, false
	}
	switch {
	case p.m == 0:
		return len(b), true // len(b) = d <= k
	case len(b) == 0:
		return p.m, true
	case k <= maxBandK:
		return boundedBand(p, b, k)
	default:
		return boundedBlock(p, b, k, s)
	}
}

// boundedBlock is the blocked column kernel with the bottom-row early abandon:
// one vertical-delta word pair per 64 pattern symbols, horizontal deltas
// carried between blocks. It serves the thresholds the band window cannot
// hold. Preconditions: m >= 1, len(b) >= 1.
func boundedBlock[T ~string | ~[]byte](p *MyersPattern, b T, k int, s *MyersScratch) (int, bool) {
	if s == nil {
		s = &MyersScratch{}
	}
	w := p.stride - 2
	if cap(s.pv) < w {
		s.pv = make([]uint64, w)
		s.mv = make([]uint64, w)
	}
	pv := s.pv[:w]
	mv := s.mv[:w]
	for i := range pv {
		pv[i] = ^uint64(0)
		mv[i] = 0
	}
	score := p.m
	n := len(b)
	for i := 0; i < n; i++ {
		at := int(p.class[b[i]])*p.stride + 1
		hin := 1
		for bl, eq := range p.bits[at : at+w] {
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
				hiBit = p.last
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
		if score-(n-1-i) > k {
			return 0, false
		}
	}
	if score > k {
		return 0, false
	}
	return score, true
}
