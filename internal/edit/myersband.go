package edit

import "math/bits"

// Diagonal-band form of the bit-vector algorithm (Hyyrö, "A bit-vector
// algorithm for computing Levenshtein and Damerau edit distances", 2003).
//
// Only the cells with |i-j| <= k can hold a value <= k, so instead of a
// column of m vertical deltas the kernel keeps one 64-bit window that slides
// one DP row down per text column: at column j (1-based) bit p of the window
// is row j-k+p. The band occupies bits 0..2k, which is why k stops at 31.
//
//   - Match word. Row i of the pattern is bit 63+i of its class's words in
//     MyersPattern.bits, so the window for column j starts at bit 63+j-k and is
//     cut out of two consecutive words with a funnel shift. The zero padding
//     word on each side makes rows <= 0 and rows > m read as mismatches.
//   - Virtual rows. For the first k columns the window hangs over the top of
//     the matrix. Rows i <= 0 are given D[i][j] = j-i: vertical delta -1,
//     horizontal delta +1, diagonal delta 0. With an all-zero match word that
//     is a fixed point of the recurrence, so initialising the deltas once
//     (mv on the k virtual rows, pv below) makes the boundary D[0][j] = j
//     fall out of the same five word operations as every other cell.
//   - Diagonal step. The horizontal deltas of column j are computed in the
//     window of column j; the vertical deltas are then formed directly in the
//     alignment of column j+1, which turns the column kernel's ph<<1 / mh<<1
//     into d0>>1. The row that enters at bit 63 sees d0 = 0 there, i.e. it is
//     assumed to cost one more than its diagonal predecessor: a surrogate
//     that can only overestimate. Likewise bit 0 ignores the cell above the
//     window. Both neighbours lie outside |i-j| <= k, where the true value
//     already exceeds k, and a cell of value <= k has an optimal path that
//     never leaves the band: so every computed cell is >= its true value, and
//     equal to it whenever that is <= k.
//   - Score and abandon. The score is read on the diagonal that ends in
//     D[m][n], fixed window bit (m-n)+k: it starts at |m-n| (a real cell of
//     column 0 or a virtual one) and grows by 1-d0 per column. Values along a
//     diagonal never decrease, so the candidate is dropped the first column
//     that diagonal exceeds k — one word-step per column whatever m is, and
//     about 2k+4 columns for an unrelated candidate. (The loop counts k minus
//     the score down to below zero, which keeps k out of its registers.)

// MaxBandK is the largest threshold whose band (2k+1 rows) fits the window.
const MaxBandK = 31

// window cuts the match word of the 64 pattern rows from bit at on out of
// the words of class c, which lie stride apart in bits: the funnel shift both
// band loops read their match words with.
func window(bits []uint64, c, stride, at int) uint64 {
	w := at>>6*stride + c
	sh := uint(at & 63)
	return bits[w]>>sh | bits[w+stride]<<1<<(63-sh)
}

// boundedBand is the band kernel. Preconditions: 0 <= k <= MaxBandK,
// |m-n| <= k.
func boundedBand[T ~string | ~[]byte](p *MyersPattern, b T, k int) (int, bool) {
	n := len(b)
	bits, stride := p.bits, p.stride
	pv := ^uint64(0) << uint(k)
	mv := ^pv
	diag := p.m - n // the target diagonal, i-j of the cell D[m][n]
	target := uint64(1) << uint(diag+k)
	left := k - diag // k minus the score |diag|: what that diagonal may still grow by
	if diag < 0 {
		left = k + diag
	}
	base := 64 - k // bit of the window's row 0 in a class's words, for column 1
	for j := 0; j < n; j++ {
		eq := window(bits, int(p.class[b[j]]), stride, base+j)
		d0 := (((eq & pv) + pv) ^ pv) | (eq | mv)
		ph := mv | ^(d0 | pv)
		mh := pv & d0
		if d0&target == 0 {
			left--
		}
		if left < 0 {
			return 0, false
		}
		d0 >>= 1
		pv = mh | ^(d0 | ph)
		mv = ph & d0
	}
	return k - left, true
}

// Prefix-tree descent with the band kernel. A trie walks the text one byte
// per tree level and must be able to resume any prefix's column for each of
// its children, so the column state is a value, Band: the two vertical-delta
// words of the prefix's last column in the alignment of the next one (bit b
// holds the step from window bit b to bit b+1) and the value of the window's
// top cell, diagonal -k, which grows by 1-d0 per column like any diagonal.
// Every other window cell is that value plus a popcount of the deltas above
// it (cell). The recurrence and the match window are boundedBand's.
//
// Pruning watches only the target diagonals: a string of length L ends in
// D[m][L], on diagonal m-L, window bit m-L+k. Below a tree node the lengths
// are [minLen, maxLen], so only the bits of [minLen, maxLen] ∩ [m-k, m+k]
// can still end within k, and since values never decrease along a diagonal
// the subtree is dead once all of them exceed k. A target whose current cell
// lies above row 0 holds the virtual value L-m <= k, kept exactly, so it is
// alive, as it must be: the string can still reach D[m][L] along it.

// Band is the band kernel's column state after a text prefix (see above).
// The zero value is not a state; start from StartBand.
type Band struct {
	pv, mv uint64
	top    int
}

// StartBand returns the state for the empty prefix at threshold k <=
// MaxBandK: column 0, whose top cell is the virtual D[-k][0] = k.
func StartBand(k int) Band {
	pv := ^uint64(0) << uint(k)
	return Band{pv: pv, mv: ^pv, top: k}
}

// cell returns the value of window bit b, diagonal b-k, in s's column.
func (s Band) cell(b int) int {
	above := uint64(1)<<uint(b) - 1
	return s.top + bits.OnesCount64(s.pv&above) - bits.OnesCount64(s.mv&above)
}

// StepBand extends s, the state after depth text bytes, by label. It reports
// false as soon as no string whose length is in [minLen, maxLen] and that
// extends the prefix can be within k: every target diagonal of that window
// (see above) exceeds k. Preconditions: k <= MaxBandK, minLen >= depth +
// len(label).
func (p *MyersPattern) StepBand(s Band, label []byte, depth, k, minLen, maxLen int) (Band, bool) {
	lo := p.m + k - min(maxLen, p.m+k) // the longest target's bit
	hi := p.m + k - max(minLen, p.m-k) // the shortest's
	if lo > hi {
		return s, false
	}
	words, stride := p.bits, p.stride
	pv, mv, top := s.pv, s.mv, s.top
	at := 64 - k + depth // bit of the window's top row in a class's words, for column depth+1
	for _, c := range label {
		eq := window(words, int(p.class[c]), stride, at)
		at++
		d0 := (((eq & pv) + pv) ^ pv) | (eq | mv)
		ph := mv | ^(d0 | pv)
		mh := pv & d0
		top += 1 - int(d0&1)
		d0 >>= 1
		pv = mh | ^(d0 | ph)
		mv = ph & d0
		// Find the first live target from lo on. Neighbouring cells differ
		// by at most one, so a cell of value v > k is v-k bits short of any
		// cell within k; and a dead diagonal stays dead, so the search
		// resumes there on the next byte.
		for {
			v := Band{pv, mv, top}.cell(lo)
			if v <= k {
				break
			}
			if lo += v - k; lo > hi {
				return Band{pv, mv, top}, false
			}
		}
	}
	return Band{pv, mv, top}, true
}

// BandDistance returns the distance between the pattern and the prefix of
// length depth that s is the state of, when it is at most k.
func (p *MyersPattern) BandDistance(s Band, depth, k int) (int, bool) {
	b := p.m - depth + k
	if b < 0 || b > 2*k {
		return 0, false
	}
	v := s.cell(b)
	return v, v <= k
}
