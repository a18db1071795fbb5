package join

// Clustering of near-duplicates: connected components of the similarity
// graph induced by a self-join. This is the classic application of a string
// similarity join (deduplicating a gazetteer full of misspelled entries) and
// powers the dedup example.

// Clusters groups the indices of data into connected components where edges
// are pairs within edit distance k. Singletons are included. Components are
// ordered by their smallest member; members are ascending.
func Clusters(data []string, k int, opts Options) [][]int32 {
	parent := make([]int32, len(data))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	join(data, data, k, opts, func(p Pair) {
		if p.R < p.S {
			union(p.R, p.S)
		}
	})
	groups := make(map[int32][]int32)
	for i := range parent {
		r := find(int32(i))
		groups[r] = append(groups[r], int32(i))
	}
	out := make([][]int32, 0, len(groups))
	for r, members := range groups {
		_ = r
		out = append(out, members)
	}
	// Order components by smallest member (members are already ascending
	// because i increases).
	sortByFirst(out)
	return out
}

func sortByFirst(groups [][]int32) {
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		j := i - 1
		for j >= 0 && groups[j][0] > g[0] {
			groups[j+1] = groups[j]
			j--
		}
		groups[j+1] = g
	}
}
