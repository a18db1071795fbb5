package edit

// Diagonal-band form of the bit-vector algorithm (Hyyrö, "A bit-vector
// algorithm for computing Levenshtein and Damerau edit distances", 2003).
//
// Only the cells with |i-j| <= k can hold a value <= k, so instead of a
// column of m vertical deltas the kernel keeps one 64-bit window that slides
// one DP row down per text column: at column j (1-based) bit p of the window
// is row j-k+p. The band occupies bits 0..2k, which is why k stops at 31.
//
//   - Match word. Row i of the pattern is bit 63+i of its class's row in
//     MyersPattern.bits, so the window for column j starts at bit 63+j-k and is
//     cut out of two adjacent words with a funnel shift. The zero padding
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

// maxBandK is the largest threshold whose band (2k+1 rows) fits the window.
const maxBandK = 31

// boundedBand is the band kernel. Preconditions: 0 <= k <= maxBandK,
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
	base := 64 - k // bit of the window's row 0 in a bits row, for column 1
	for j := 0; j < n; j++ {
		at := base + j
		w := int(p.class[b[j]])*stride + at>>6
		sh := uint(at & 63)
		eq := bits[w]>>sh | bits[w+1]<<1<<(63-sh)
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
