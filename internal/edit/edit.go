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
//   - PaperBoundedDistance: the paper §3.2 "faster edit distance
//     calculation" — length filter (eq. 5) and the main-diagonal early
//     abort (eq. 6–8) over full-width rows — which the scan ladder runs.
//   - BoundedDistance: the same with a band of 2k+1 diagonals, which the
//     paper never computes: the tests' oracle.
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

// BoundedDistance computes ed(a, b) if it is at most k and reports
// (distance, true); otherwise it reports (_, false) as soon as the bound is
// provably exceeded. k < 0 yields (_, false). It is the DP oracle of the
// tests and the predicate behind simsearch.WithinK.
//
// It is the paper's §3.2 kernel with a band the paper never computes. The
// §3.2 kernel as the paper describes it, and the one its scan ladder runs,
// is PaperBoundedDistance. Both share the paper's two filters:
//
//   - Length filter (eq. 5): if |len(a)-len(b)| > k the distance cannot be
//     within k, no matrix is computed.
//   - Main-diagonal early abort (eq. 6–8): values never decrease along a
//     diagonal, and errors on the diagonal that ends in M[la][lb] cannot be
//     repaired, so once that diagonal exceeds k the computation stops.
//
// Beyond the paper, cell (i,j) can only contribute to a result ≤ k if
// |i-j| ≤ k, so only a band of 2k+1 diagonals is filled; and if every cell
// in the current band row exceeds k, no later cell can return below k, so it
// aborts as well.
func BoundedDistance(a, b string, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	la, lb := len(a), len(b)
	d := la - lb
	if d < 0 {
		d = -d
	}
	if d > k {
		return 0, false
	}
	if k == 0 {
		if a == b {
			return 0, true
		}
		return 0, false
	}
	if la == 0 {
		return lb, true // lb <= k holds: lb = d <= k
	}
	if lb == 0 {
		return la, true
	}
	if lb > la {
		a, b = b, a
		la, lb = lb, la
	}
	prev := make([]int, lb+1)
	curr := make([]int, lb+1)

	const inf = int(^uint(0) >> 2)
	for j := 0; j <= lb && j <= k; j++ {
		prev[j] = j
	}
	for j := k + 1; j <= lb; j++ {
		prev[j] = inf
	}
	delta := la - lb
	for i := 1; i <= la; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > lb {
			hi = lb
		}
		if lo > hi {
			return 0, false
		}
		if lo > 1 {
			curr[lo-1] = inf
		} else {
			curr[0] = i
		}
		ca := a[i-1]
		rowMin := inf
		for j := lo; j <= hi; j++ {
			var v int
			if ca == b[j-1] {
				v = prev[j-1]
			} else {
				up := inf
				if j < i+k {
					up = prev[j]
				}
				left := inf
				if j > lo {
					left = curr[j-1]
				} else if lo == 1 {
					left = curr[0]
				}
				v = 1 + min3(up, left, prev[j-1])
			}
			curr[j] = v
			if v < rowMin {
				rowMin = v
			}
			if j == i-delta && v > k {
				return 0, false
			}
		}
		if hi < lb {
			curr[hi+1] = inf
		}
		if rowMin > k {
			return 0, false
		}
		prev, curr = curr, prev
	}
	if prev[lb] > k {
		return 0, false
	}
	return prev[lb], true
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
