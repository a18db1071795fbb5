package core

import "simsearch/internal/pool"

// Pair is one join result: the index of the probe string (R), the ID of the
// engine's string (S) and the exact edit distance between them.
type Pair struct {
	R, S int32
	Dist int
}

// Join returns every pair (i, j) with ed(probes[i], s_j) <= k, where s is the
// dataset eng was built over, ordered by (R, S). The competition's join is a
// search per probe, a composition over any engine like TopK and Hamming, so
// it has every filter the engine has. The probes run through SearchBatch on
// runner (nil: the engine's own scheduler); each probe's matches are sorted
// by ID, so the pairs need no sort.
func Join(eng Searcher, probes []string, k int, runner pool.Runner) []Pair {
	return join(eng, probes, k, runner, false)
}

// SelfJoin returns every unordered pair i < j of data within k edits,
// ordered by (R, S). eng must be built over data.
func SelfJoin(eng Searcher, data []string, k int, runner pool.Runner) []Pair {
	return join(eng, data, k, runner, true)
}

// join probes eng with every string; self keeps only matches past the probe.
func join(eng Searcher, probes []string, k int, runner pool.Runner, self bool) []Pair {
	if k < 0 || len(probes) == 0 || eng.Len() == 0 {
		return nil
	}
	qs := make([]Query, len(probes))
	for i, p := range probes {
		qs[i] = Query{Text: p, K: k}
	}
	var out []Pair
	for i, ms := range SearchBatch(eng, qs, runner) {
		for _, m := range ms {
			if !self || m.ID > int32(i) {
				out = append(out, Pair{R: int32(i), S: m.ID, Dist: m.Dist})
			}
		}
	}
	return out
}

// Clusters groups the indices of data into the connected components of the
// graph whose edges are SelfJoin's pairs. Singletons are included.
// Components are ordered by their smallest member; members are ascending.
func Clusters(eng Searcher, data []string, k int, runner pool.Runner) [][]int32 {
	parent := make([]int32, len(data))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, p := range SelfJoin(eng, data, k, runner) {
		// The smaller root wins, so a component's root is its smallest member.
		ra, rb := find(p.R), find(p.S)
		parent[max(ra, rb)] = min(ra, rb)
	}
	// One ascending pass: each root opens its group before its other members.
	group := make([]int32, len(data))
	var out [][]int32
	for i := range parent {
		r := find(int32(i))
		if r == int32(i) {
			group[i] = int32(len(out))
			out = append(out, nil)
		}
		out[group[r]] = append(out[group[r]], int32(i))
	}
	return out
}
