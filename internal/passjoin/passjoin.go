// Package passjoin implements a segment-index similarity join in the style
// of PassJoin (Li, Deng, Wang, Feng: "PASS-JOIN: A Partition-based Method
// for Similarity Joins", VLDB 2012) — the partition-based family that
// dominated the EDBT/ICDT 2013 competition era for the join problem the
// paper's venue posed.
//
// Principle: partition every indexed string into k+1 disjoint segments. If
// ed(r, s) <= k, at least one of s's segments survives unedited in r (the
// pigeonhole over k edits), and its occurrence in r starts within k
// positions of its position in s. The join therefore:
//
//  1. indexes each segment under (segment number, string length, content),
//  2. probes each r with the substrings that could equal a segment of an
//     s whose length is compatible (|len(r)-len(s)| <= k), restricted to
//     the +/-k position window, and
//  3. verifies the candidate pairs with the bounded edit distance.
//
// This implementation uses the simple +/-k position window rather than the
// paper's tighter multi-match-aware selection; the candidate set is slightly
// larger but the result is identical.
package passjoin

import (
	"sort"

	"simsearch/internal/edit"
)

// Pair is one join result.
type Pair struct {
	R, S int32
	Dist int
}

// segKey addresses one segment slot: the i-th segment of indexed strings of
// a given length.
type segKey struct {
	seg    int32
	strLen int32
}

// Index holds the segment inverted index over one string collection for a
// fixed threshold k.
type Index struct {
	k    int
	data []string
	// seg maps (segment number, string length) to content -> string ids.
	seg map[segKey]map[string][]int32
	// lengths lists the distinct indexed lengths, ascending.
	lengths []int
}

// segBounds returns the start offset and length of segment i when a string
// of length l is split into k+1 near-even segments: the first rem segments
// get an extra byte.
func segBounds(l, k, i int) (start, segLen int) {
	n := k + 1
	base := l / n
	rem := l % n
	if i < rem {
		return i * (base + 1), base + 1
	}
	return rem*(base+1) + (i-rem)*base, base
}

// New builds the segment index over data for threshold k (k >= 0).
func New(data []string, k int) *Index {
	if k < 0 {
		k = 0
	}
	idx := &Index{k: k, data: data, seg: make(map[segKey]map[string][]int32)}
	seenLen := make(map[int]bool)
	for id, s := range data {
		l := len(s)
		if !seenLen[l] {
			seenLen[l] = true
			idx.lengths = append(idx.lengths, l)
		}
		for i := 0; i <= k; i++ {
			start, segLen := segBounds(l, k, i)
			if segLen == 0 {
				// Shorter strings than k+1 characters have empty segments;
				// an empty segment matches everywhere, so index it under
				// the empty content (probe handles it).
				continue
			}
			key := segKey{seg: int32(i), strLen: int32(l)}
			m := idx.seg[key]
			if m == nil {
				m = make(map[string][]int32)
				idx.seg[key] = m
			}
			content := s[start : start+segLen]
			m[content] = append(m[content], int32(id))
		}
	}
	sort.Ints(idx.lengths)
	return idx
}

// K returns the threshold the index was built for.
func (idx *Index) K() int { return idx.k }

// Len returns the indexed collection size.
func (idx *Index) Len() int { return len(idx.data) }

// Probe returns the ids of indexed strings within edit distance k of r,
// with their exact distances, sorted by id.
func (idx *Index) Probe(r string) []Pair {
	var scratch edit.Scratch
	cand := make(map[int32]bool)
	lr := len(r)

	// Length-compatible indexed lengths.
	lo := sort.SearchInts(idx.lengths, lr-idx.k)
	hi := sort.SearchInts(idx.lengths, lr+idx.k+1)
	for _, l := range idx.lengths[lo:hi] {
		// Strings shorter than k+1 bytes have at least one empty segment;
		// the pigeonhole still holds but an empty segment carries no
		// signal. Treat every such indexed string as a candidate via the
		// per-length scan below.
		if l <= idx.k {
			key := segKey{seg: 0, strLen: int32(l)}
			for _, ids := range idx.seg[key] {
				for _, id := range ids {
					cand[id] = true
				}
			}
			// Also include strings whose first segment was empty (l == 0).
			if l == 0 {
				// Empty strings match iff lr <= k; they have no segments at
				// all, so enumerate them directly.
				for id, s := range idx.data {
					if len(s) == 0 {
						cand[int32(id)] = true
					}
				}
			}
			continue
		}
		for i := 0; i <= idx.k; i++ {
			start, segLen := segBounds(l, idx.k, i)
			key := segKey{seg: int32(i), strLen: int32(l)}
			m := idx.seg[key]
			if m == nil {
				continue
			}
			// The segment's occurrence in r starts within +/-k of its
			// position in s.
			from := start - idx.k
			if from < 0 {
				from = 0
			}
			to := start + idx.k
			if to > lr-segLen {
				to = lr - segLen
			}
			for p := from; p <= to; p++ {
				if ids, ok := m[r[p:p+segLen]]; ok {
					for _, id := range ids {
						cand[id] = true
					}
				}
			}
		}
	}

	out := make([]Pair, 0, len(cand))
	for id := range cand {
		if d, ok := scratch.BoundedDistance(r, idx.data[id], idx.k); ok {
			out = append(out, Pair{S: id, Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].S < out[j].S })
	return out
}
