package edit

// Scratch holds reusable DP row buffers so repeated bounded-distance calls
// allocate nothing. This realizes the paper's §3.4 "simple data types and
// program methods" step: flat integer arrays reused across candidates rather
// than containers allocated per comparison.
//
// A Scratch is not safe for concurrent use; give each worker its own.
type Scratch struct {
	prev, curr []int
}

// PaperBoundedDistance is the §3.2 kernel exactly as the paper describes it:
// the length filter (eq. 5) and the main-diagonal early abort (eq. 6–8) on
// an otherwise full-width two-row dynamic program. Unlike BoundedDistance it
// does NOT restrict computation to the |i-j| <= k band — the paper never
// bands its matrix — so each row costs O(min(la, lb)) regardless of k.
//
// The scan ladder's rungs FastED and above run this kernel; the banded
// BoundedDistance is the tests' oracle.
func PaperBoundedDistance(a, b string, k int) (int, bool) {
	var s Scratch
	return s.PaperBoundedDistance(a, b, k)
}

// PaperBoundedDistance is the scratch-reusing variant of the package-level
// function of the same name.
func (s *Scratch) PaperBoundedDistance(a, b string, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	la, lb := len(a), len(b)
	// Length filter, eq. 5.
	d := la - lb
	if d < 0 {
		d = -d
	}
	if d > k {
		return 0, false
	}
	if la == 0 {
		return lb, true
	}
	if lb == 0 {
		return la, true
	}
	if lb > la {
		a, b = b, a
		la, lb = lb, la
	}
	if cap(s.prev) < lb+1 {
		s.prev = make([]int, lb+1)
		s.curr = make([]int, lb+1)
	}
	prev := s.prev[:lb+1]
	curr := s.curr[:lb+1]
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	delta := la - lb // the main diagonal of eq. 6 passes through j = i - delta
	for i := 1; i <= la; i++ {
		curr[0] = i
		ca := a[i-1]
		for j := 1; j <= lb; j++ {
			if ca == b[j-1] {
				curr[j] = prev[j-1]
			} else {
				v := prev[j]
				if curr[j-1] < v {
					v = curr[j-1]
				}
				if prev[j-1] < v {
					v = prev[j-1]
				}
				curr[j] = v + 1
			}
		}
		// Early abort, eq. 6-8: on the diagonal ending in M[la][lb] values
		// only grow, so once it exceeds k the result must exceed k.
		if j := i - delta; j >= 0 && j <= lb && curr[j] > k {
			return 0, false
		}
		prev, curr = curr, prev
	}
	s.prev, s.curr = prev, curr
	if prev[lb] > k {
		return 0, false
	}
	return prev[lb], true
}
