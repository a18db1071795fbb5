package edit

// Incremental row computation for prefix-tree descent (paper §4.1).
//
// The index engine walks the prefix tree character by character. Each node
// at depth i corresponds to a prefix y[0..i-1] of the stored strings below
// it, and the DP row for that prefix against the whole query x is
//
//	row[j] = ed(y[0..i-1], x[0..j-1]),  j = 0..len(x).
//
// Descending one character extends the row with a single DP step. The row
// minimum lower-bounds the edit distance to *any* string that extends the
// prefix, which yields the paper's eq. 9 pruning condition.

// InitialRow returns the DP row for the empty prefix against query:
// row[j] = j. The caller owns the slice.
func InitialRow(query string) []int {
	row := make([]int, len(query)+1)
	for j := range row {
		row[j] = j
	}
	return row
}

// StepRow extends prev (the row for some prefix p) to the row for p+string(c)
// against query. dst is reused when it has sufficient capacity; the returned
// slice holds the new row. prev is not modified, so sibling branches of a
// trie can step from the same parent row.
func StepRow(query string, prev []int, c byte, dst []int) []int {
	n := len(query) + 1
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	dst[0] = prev[0] + 1
	for j := 1; j < n; j++ {
		if query[j-1] == c {
			dst[j] = prev[j-1]
		} else {
			dst[j] = 1 + min3(prev[j], dst[j-1], prev[j-1])
		}
	}
	return dst
}

// RowDistance returns the edit distance encoded in a complete row, i.e. the
// distance between the row's prefix (used as a full string) and the query.
func RowDistance(row []int) int {
	return row[len(row)-1]
}
