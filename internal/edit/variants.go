package edit

// The Hamming distance beside the edit distance the paper uses:
// Rheinländer et al.'s PETER index (the paper's §2.3 related work) supports
// both, and the trie and the facade's HammingScan answer it.

// HammingDistance returns the number of positions at which a and b differ,
// or -1 if the lengths differ (the Hamming distance is undefined then).
func HammingDistance(a, b string) int {
	if len(a) != len(b) {
		return -1
	}
	d := 0
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// HammingWithinK reports whether a and b have equal length and differ in at
// most k positions, short-circuiting as soon as k+1 mismatches are seen.
func HammingWithinK(a, b string, k int) bool {
	if len(a) != len(b) || k < 0 {
		return false
	}
	d := 0
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			d++
			if d > k {
				return false
			}
		}
	}
	return true
}
