package edit

// The Hamming distance beside the edit distance the paper uses:
// Rheinländer et al.'s PETER index (the paper's §2.3 related work) supports
// both, and core.Hamming answers it on every engine.

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
