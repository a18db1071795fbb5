package edit

// Query-compiled Myers kernel (Gene Myers, "A fast bit-vector algorithm for
// approximate string matching based on dynamic programming", JACM 1999; the
// paper under reproduction stops at its §3.2 DP): the match table is built
// once per query and then streamed over every candidate, instead of being
// rebuilt for every pair. This is the amortization that makes the
// bit-parallel kernel viable on the serving path — on the city-name workload
// the table build costs as much as scanning a whole candidate.
//
// Two bounded kernels read that one table. For k <= MaxBandK the diagonal-band
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
// goroutines; only the blocked kernel (k > MaxBandK) needs a per-goroutine
// MyersScratch.
type MyersPattern struct {
	// class maps a text byte to its row of bits. Bytes that do not occur in
	// the pattern share row 0, which stays all zero, so the table is sized by
	// the pattern's alphabet and not by 256. A pattern of all 256 byte
	// values leaves no byte for row 0, and its last new byte takes it: so a
	// row fits a byte, and the lane kernel holds the whole table in four
	// vector registers.
	class [256]uint8
	m     int
	// bits holds the table word-major: word w of every class, then word
	// w+1, stride = the number of classes apart, words+2 of them; bit i of
	// word 1+i>>6 of a class is set iff pattern[i] belongs to it. The zero
	// word on each side lets the band kernel cut a 64-bit window that hangs
	// over either end of the pattern with no edge case; the blocked kernel
	// reads words 1..words. Word-major, the words the band window of one
	// column reads are adjacent for every class, which the lane kernel loads
	// whole. It is inline when it fits, so that compiling a name or a read
	// is one allocation.
	bits   []uint64
	stride int
	// last is the bit of the pattern's final symbol within its word.
	last   uint64
	inline [inlineBits]uint64
}

// inlineBits is how many words of the table a pattern holds inline: every
// row of a name of up to 64 bytes with up to 20 distinct ones, or of a read
// (A, C, G, N, T) of up to 512 bases.
const inlineBits = 64

// MyersScratch holds the per-goroutine vertical-delta words the blocked
// kernel needs. The zero value is ready to use; the band kernel never touches
// it.
type MyersScratch struct {
	pv, mv []uint64
}

// CompileMyers builds the match table for pattern once. The returned
// pattern is immutable and safe for concurrent use.
func CompileMyers(pattern string) *MyersPattern {
	p := &MyersPattern{m: len(pattern)}
	rows := 1
	for i := 0; i < p.m; i++ {
		// Up to the 255th new byte, row 0 marks a byte not seen yet; the
		// 256th is the last byte left on row 0 and stays there.
		if c := pattern[i]; rows <= 256 && p.class[c] == 0 {
			p.class[c] = uint8(rows)
			rows++
		}
	}
	p.stride = min(rows, 256)
	if n := p.stride * ((p.m+63)/64 + 2); n <= inlineBits {
		p.bits = p.inline[:n]
	} else {
		p.bits = make([]uint64, n)
	}
	for i := 0; i < p.m; i++ {
		p.bits[(1+i>>6)*p.stride+int(p.class[pattern[i]])] |= 1 << uint(i&63)
	}
	if p.m > 0 {
		p.last = 1 << uint((p.m-1)&63)
	}
	return p
}

// Len returns the pattern length in bytes.
func (p *MyersPattern) Len() int { return p.m }

// BoundedDistanceBytes reports the edit distance between the pattern and b
// when it is <= k, abandoning the candidate as early as possible: the length
// filter rejects before any column, and the kernel stops at the first column
// that proves the distance exceeds k. Safe for concurrent use when k <= 31;
// larger thresholds need a per-goroutine scratch (nil allocates).
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
	case k <= MaxBandK:
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
	w := len(p.bits)/p.stride - 2
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
		at := p.stride + int(p.class[b[i]]) // word 1 of the byte's class
		hin := 1
		for bl := range pv {
			eq := p.bits[at+bl*p.stride]
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
