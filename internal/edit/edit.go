// Package edit implements the edit-distance substrate of the reproduction.
//
// The paper ("Trying to outperform a well-known index with a sequential
// scan", EDBT/ICDT 2013) solves the string similarity search problem under
// the unweighted edit distance (Levenshtein distance): the minimal number of
// single-character insertions, deletions and replacements transforming one
// string into another. This package provides the full ladder of
// edit-distance algorithms the paper's sequential engine steps through, plus
// the bit-parallel Myers kernels the cascade verifies with:
//
//   - Distance / distanceFullMatrix: the textbook (lx+1)×(ly+1) dynamic
//     programming matrix of paper §2.2, Figure 1.
//   - distanceTwoRows: the same recurrence with O(min(lx,ly)) memory.
//   - BoundedDistance: the paper §3.2 "faster edit distance calculation" —
//     length filter (eq. 5), banded computation restricted to the diagonals
//     that can still stay within k, and the main-diagonal early abort
//     (eq. 6–8).
//   - CompileMyers: the query compiled once into a Myers bit-parallel
//     pattern, with a diagonal-band kernel for k <= 31 and a blocked column
//     kernel above.
//
// All algorithms operate on byte strings. The paper's datasets are byte
// oriented (the city names use "ca. 255 symbols", i.e. raw bytes; DNA uses
// ACGNT), so byte-level edit distance reproduces the competition semantics.
package edit

// Distance returns the unweighted edit distance between a and b using the
// two-row dynamic program. It always computes the exact distance; use
// BoundedDistance when a threshold k is known.
func Distance(a, b string) int {
	return distanceTwoRows(a, b)
}

// DistanceFullMatrix computes the edit distance with the full
// (len(a)+1)×(len(b)+1) matrix exactly as written in the paper's §2.2. It is
// deliberately unoptimized: it is the paper's §3.1 base implementation and
// the reference the ladder is verified against. The matrix itself (matrix,
// below) is not retained.
func DistanceFullMatrix(a, b string) int {
	m := matrix(a, b)
	return m[len(a)][len(b)]
}

// matrix returns the full dynamic-programming matrix M with
// M[i][j] = ed(a[:i], b[:j]) (paper eq. 2–4). Row 0 and column 0 hold the
// boundary values M[i][0] = i and M[0][j] = j.
func matrix(a, b string) [][]int {
	la, lb := len(a), len(b)
	m := make([][]int, la+1)
	backing := make([]int, (la+1)*(lb+1))
	for i := range m {
		m[i], backing = backing[:lb+1], backing[lb+1:]
		m[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		m[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			if a[i-1] == b[j-1] {
				m[i][j] = m[i-1][j-1]
			} else {
				m[i][j] = 1 + min3(m[i-1][j], m[i][j-1], m[i-1][j-1])
			}
		}
	}
	return m
}

// distanceTwoRows is the classic O(len(a)*len(b)) time, O(min) space
// dynamic program.
func distanceTwoRows(a, b string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is now the shorter string; rows have len(b)+1 entries.
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	curr := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			if ca == b[j-1] {
				curr[j] = prev[j-1]
			} else {
				curr[j] = 1 + min3(prev[j], curr[j-1], prev[j-1])
			}
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}

// WithinK reports whether ed(a, b) <= k. It is the predicate of the string
// similarity search problem (paper eq. 1) and uses the bounded computation.
func WithinK(a, b string, k int) bool {
	d, ok := BoundedDistance(a, b, k)
	return ok && d <= k
}

// BoundedDistance computes ed(a, b) if it is at most k and reports
// (distance, true); otherwise it reports (_, false) as soon as the bound is
// provably exceeded. k < 0 yields (_, false).
//
// This is the paper's §3.2 improved calculation:
//
//   - Length filter (eq. 5): if |len(a)-len(b)| > k the distance cannot be
//     within k, no matrix is computed.
//   - Banded computation: cell (i,j) can only contribute to a result ≤ k if
//     |i-j| ≤ k, so only a band of 2k+1 diagonals is filled.
//   - Main-diagonal early abort (eq. 6–8): values never decrease along a
//     diagonal, and errors on the diagonal that ends in M[la][lb] cannot be
//     repaired, so once that diagonal exceeds k the computation stops.
//
// The early abort here is strictly stronger than the paper's: if every cell
// in the current band row exceeds k, no later cell can return below k, so we
// abort as well.
func BoundedDistance(a, b string, k int) (int, bool) {
	var s Scratch
	return s.BoundedDistance(a, b, k)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
