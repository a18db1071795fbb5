// Package trie implements the paper's index-based engine: a prefix tree over
// the data strings with per-node pruning information, optional path
// compression (paper §4.2, Figure 4), and fuzzy search by dynamic-programming
// row descent (paper §4.1).
//
// Each node stores the minimal and maximal length of the strings reachable
// below it, following Rheinländer et al.'s PETER index as cited in §2.3 and
// adopted in §4.1: a branch whose length window cannot intersect
// [len(q)-k, len(q)+k] is skipped (this realizes the paper's d_m tolerance,
// eq. 9–10). The paper's descent steps a full DP row per label byte and
// prunes on the diagonal test of eq. 9–10; the modern one (WithModernPruning)
// steps the scan's 64-bit band kernel instead and prunes a subtree once every
// diagonal that ends at one of its lengths exceeds k.
//
// A tree is built from one sort, by one recursion, straight into its packed
// slabs. Build sorts the IDs once by (string, ID) and records each string's
// common prefix with its sorted predecessor; one pass over those prefix
// lengths sizes the node and the label slab exactly, and one recursion over
// ranges of the sorted order lays the tree into them in preorder: a range's
// strings that end at its depth are the node's, the rest split into children
// where their byte at that depth changes, and a compressed child's label
// runs to the common prefix of its range. A node is 20 bytes: its label's
// offset, the end of its subtree, the one ID of the string ending there (the
// few strings stored more than once keep theirs in a side table, Tree.dups)
// and the length window. A descent walks memory in the order it was laid
// down, and the tree holds no per-node allocation.
package trie

import (
	"cmp"
	"slices"
	"strings"

	"simsearch/internal/edit"
	"simsearch/internal/scan"
)

// Match is one search result: the ID the string was built with and its exact
// edit distance to the query.
type Match = scan.Match

// node is a prefix-tree node. In the plain tree every node but the root has
// a one-byte label; in the compressed tree a chain of single-child nodes no
// string ends at is one node with a multi-byte label. In the preorder slab,
// node i's label is labels[off : nodes[i+1].off] (a sentinel node closes
// the last), and its children, sorted by first label byte, are node i+1 when
// i+1 < end and each next one at the end of the one before.
type node struct {
	off int32 // where the label starts in Tree.labels
	end int32 // one past the last node of the subtree
	// id is noID when no string ends here, the ID of the one string that
	// does, or -2-i when several do (duplicates share a node): their IDs are
	// Tree.dups[i].
	id     int32
	minLen int32 // minimal length of any string below (inclusive of this node)
	maxLen int32 // maximal length
}

// noID marks a node no string ends at.
const noID = -1

// Tree is a prefix-tree index over a set of strings.
type Tree struct {
	nodes  []node // in preorder, the root first, then one sentinel whose off is len(labels)
	labels []byte
	dups   [][]int32 // the IDs of each string stored more than once, in ID order, numbered in preorder
	stats  Stats
	modern bool
}

// Option configures tree construction.
type Option func(*Tree)

// WithModernPruning replaces the paper's §4.1 descent (full DP rows with the
// diagonal-plus-d_m test, eq. 9–10) by the scan's kernel: the query is
// compiled once (edit.CompileMyers), each label byte steps the 64-bit
// diagonal band (edit.StepBand), and a subtree is pruned once every diagonal
// ending at a length in its [minLen, maxLen] ∩ [len(q)-k, len(q)+k] exceeds
// k. Above edit.MaxBandK, where the band outgrows the word, it descends with
// the paper's rows. Results are identical; only the work differs.
func WithModernPruning() Option {
	return func(t *Tree) { t.modern = true }
}

// Build constructs the tree over data; string i gets ID i. compress selects
// the §4.2 path-compressed tree; otherwise every label is one byte, Figure
// 4's plain tree.
func Build(data []string, compress bool, opts ...Option) *Tree {
	t := &Tree{stats: Stats{Strings: len(data), Compressed: compress}}
	for _, o := range opts {
		o(t)
	}
	ids := make([]int32, len(data))
	for i, s := range data {
		ids[i] = int32(i)
		t.stats.MaxDepth = max(t.stats.MaxDepth, len(s))
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if c := strings.Compare(data[a], data[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// One pass over the sorted order measures the tree. Every distinct
	// non-empty prefix is one label byte of either tree and one node of the
	// plain one. The compressed tree has the root, a node per distinct
	// non-empty string, and a node per prefix where neighbours part with
	// neither ending there, counted once: open holds the depths on the
	// previous string's path at which a later string may still part from it.
	b := builder{data: data, ids: ids, lcp: make([]int32, len(ids)), plain: !compress}
	var nonEmpty, splits, groups int
	if len(ids) > 0 && data[ids[0]] != "" {
		nonEmpty, t.stats.LabelBytes = 1, len(data[ids[0]])
	}
	open := make([]int32, 1, t.stats.MaxDepth+1)
	for i, inGroup := 1, false; i < len(ids); i++ {
		prev, s := data[ids[i-1]], data[ids[i]]
		l := commonPrefix(prev, s)
		b.lcp[i] = int32(l)
		if l == len(s) { // s == prev: it sorts after prev and is a prefix of it
			if !inGroup {
				groups++
			}
			inGroup = true
			continue
		}
		inGroup = false
		nonEmpty++
		t.stats.LabelBytes += len(s) - l
		for open[len(open)-1] > int32(l) {
			open = open[:len(open)-1]
		}
		if open[len(open)-1] < int32(l) {
			open = append(open, int32(l))
			if l < len(prev) {
				splits++
			}
		}
	}
	t.stats.Nodes = 1 + t.stats.LabelBytes
	if compress {
		t.stats.Nodes = 1 + nonEmpty + splits
	}

	b.nodes = make([]node, t.stats.Nodes+1)
	b.labels = make([]byte, t.stats.LabelBytes)
	b.dups = make([][]int32, 0, groups)
	b.lay(0, len(ids), 0, 0)
	b.nodes[b.n].off = int32(b.l) // the sentinel, closing the last label
	t.nodes, t.labels, t.dups = b.nodes, b.labels, b.dups
	return t
}

// builder lays a tree into its slabs. They are allocated at their final
// size, so a pointer into one stays valid; n and l are the next free slot of
// each.
type builder struct {
	data   []string
	ids    []int32 // sorted by (string, ID)
	lcp    []int32 // lcp[i]: the common prefix length of the strings at ids[i-1] and ids[i]
	plain  bool
	nodes  []node
	labels []byte
	dups   [][]int32
	n, l   int
}

// lay writes, in preorder, the node of the strings ids[lo:hi] — which share
// their first to bytes, and whose label is the first string's bytes [from,
// to) — and its subtree, and returns the node. On the plain tree a label of
// several bytes is a one-byte node whose only child holds the rest.
func (b *builder) lay(lo, hi, from, to int) *node {
	m := &b.nodes[b.n]
	b.n++
	end := to
	if b.plain && to-from > 1 {
		end = from + 1
	}
	m.off = int32(b.l)
	if end > from {
		b.l += copy(b.labels[b.l:], b.data[b.ids[lo]][from:end])
	}
	m.id, m.minLen = noID, 1<<31-1
	if end < to {
		c := b.lay(lo, hi, end, to)
		m.minLen, m.maxLen, m.end = c.minLen, c.maxLen, int32(b.n)
		return m
	}

	// The strings that end here sort first, duplicates in ID order.
	t := lo
	for t < hi && len(b.data[b.ids[t]]) == to {
		t++
	}
	switch {
	case t-lo == 1:
		m.id = b.ids[lo]
	case t-lo > 1:
		m.id = -2 - int32(len(b.dups))
		b.dups = append(b.dups, slices.Clone(b.ids[lo:t]))
	}
	if t > lo {
		m.minLen, m.maxLen = int32(to), int32(to)
	}

	// The rest split into children where their byte at depth to changes; a
	// child's label runs to the common prefix of its strings.
	a, common := t, int32(1<<31-1)
	for j := t + 1; j <= hi; j++ {
		if j < hi && b.lcp[j] != int32(to) {
			common = min(common, b.lcp[j])
			continue
		}
		c := b.lay(a, j, to, min(int(common), len(b.data[b.ids[a]])))
		m.minLen, m.maxLen = min(m.minLen, c.minLen), max(m.maxLen, c.maxLen)
		a, common = j, 1<<31-1
	}
	m.end = int32(b.n)
	return m
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Modern reports whether WithModernPruning was selected.
func (t *Tree) Modern() bool { return t.modern }

// NodeCount returns the number of nodes including the root. The paper's
// Figure 4 compression claim ("half of the nodes") is checked against this.
func (t *Tree) NodeCount() int { return t.stats.Nodes }

// Len returns the number of strings the tree was built over.
func (t *Tree) Len() int { return t.stats.Strings }

// Stats summarizes structural properties for the experiment reports.
type Stats struct {
	Nodes      int
	Strings    int
	Compressed bool
	MaxDepth   int // depth in label bytes: the longest string's length
	LabelBytes int // resident label bytes (the tree's dominant memory term)
}

// Stats returns the tree's structural statistics.
func (t *Tree) Stats() Stats { return t.stats }

// Search returns every string it holds within edit distance k of q, with its
// exact distance. Results are in no particular order; callers sort. The
// modern descent carries the band kernel's three-word state on the stack, so
// at k <= edit.MaxBandK a query allocates its compiled pattern and its
// results and nothing per node. The paper's descent, which also serves the
// modern tree above that, allocates one DP row per depth level on first use
// and reuses them across the whole traversal: O(activeNodes × len(q)) time
// with O(maxDepth × len(q)) memory.
func (t *Tree) Search(q string, k int) []Match {
	if k < 0 {
		return nil
	}
	s := searcher{q: q, k: k, nodes: t.nodes, labels: t.labels, dups: t.dups}
	// The root may itself be terminal for the empty string.
	root := &t.nodes[0]
	if root.id != noID && len(q) <= k {
		s.emit(root.id, len(q))
	}
	if t.modern && k <= edit.MaxBandK {
		s.pat = edit.CompileMyers(q)
		band := edit.StartBand(k)
		for c := int32(1); c < root.end; c = t.nodes[c].end {
			s.descend(c, band, 0)
		}
		return s.out
	}
	row := edit.InitialRow(q)
	for c := int32(1); c < root.end; c = t.nodes[c].end {
		s.descendPaper(c, row, 0)
	}
	return s.out
}

type searcher struct {
	q      string
	k      int
	out    []Match
	nodes  []node             // the tree's preorder slab, sentinel included
	labels []byte             // the tree's label bytes
	dups   [][]int32          // the tree's duplicate IDs (see node.id)
	pat    *edit.MyersPattern // q, compiled for the modern descent
	rows   [][]int            // the paper descent's row buffer per byte depth, lazily grown
}

// emit appends every ID of a terminal node's id field at distance dist.
func (s *searcher) emit(id int32, dist int) {
	if id >= 0 {
		s.out = append(s.out, Match{ID: id, Dist: dist})
		return
	}
	for _, d := range s.dups[-2-id] {
		s.out = append(s.out, Match{ID: d, Dist: dist})
	}
}

// prune reports whether the subtree below n can be skipped outright based on
// the stored length window.
func (s *searcher) prune(n *node) bool {
	// Length-window pruning (the paper's d_m tolerance, eq. 9–10): every
	// string below n has length in [minLen, maxLen]; it can only match if
	// that window intersects [len(q)-k, len(q)+k].
	return int(n.minLen) > len(s.q)+s.k || int(n.maxLen) < len(s.q)-s.k
}

// rowAt returns the reusable row buffer for a byte depth.
func (s *searcher) rowAt(depth int) []int {
	for len(s.rows) <= depth {
		s.rows = append(s.rows, make([]int, len(s.q)+1))
	}
	return s.rows[depth]
}

// descend is the modern descent: it steps the band state parent, of the
// prefix of length depth, over node i's label and stops the first byte after
// which no length in its window can still end within k (edit.StepBand; an
// empty intersection with [len(q)-k, len(q)+k] stops it before the first).
func (s *searcher) descend(i int32, parent edit.Band, depth int) {
	nodes := s.nodes
	n := &nodes[i]
	label := s.labels[n.off:nodes[i+1].off]
	band, ok := s.pat.StepBand(parent, label, depth, s.k, int(n.minLen), int(n.maxLen))
	if !ok {
		return
	}
	depth += len(label)
	if n.id != noID {
		if dist, ok := s.pat.BandDistance(band, depth, s.k); ok {
			s.emit(n.id, dist)
		}
	}
	for c, end := i+1, n.end; c < end; c = nodes[c].end {
		s.descend(c, band, depth)
	}
}

// descendPaper is the paper-faithful §4.1 traversal: full DP rows, pruned by
// the node length window and the diagonal test of eq. 9–10.
//
// Soundness of the diagonal test: suppose some string y below the node has
// ed(q, y) <= k, and split an optimal alignment at prefix depth i <= len(q).
// The prefix part uses c1 edits and drifts the alignment by |d_i| positions;
// the suffix part uses c2 edits and must cover the remaining drift, so
// |d_i| <= c2 + |len(y)-len(q)|. Then
//
//	ed(y[:i], q[:i]) <= c1 + |d_i| <= c1 + c2 + |len(y)-len(q)| <= k + d_m,
//
// where d_m = max(maxLen-len(q), len(q)-minLen) bounds the length difference
// for every y in the subtree. Pruning when row[i] > k + d_m therefore never
// loses a match. For depths i beyond len(q) the completion bound applies:
// ed(q, y) >= ed(q, y[:i]) - (len(y) - i) >= row[len(q)] - (maxLen - i).
func (s *searcher) descendPaper(i int32, parentRow []int, depth int) {
	n := &s.nodes[i]
	if s.prune(n) {
		return
	}
	lq := len(s.q)
	dm := 0
	if v := int(n.maxLen) - lq; v > dm {
		dm = v
	}
	if v := lq - int(n.minLen); v > dm {
		dm = v
	}
	row := parentRow
	d := depth
	for _, c := range s.labels[n.off:s.nodes[i+1].off] {
		row = edit.StepRow(s.q, row, c, s.rowAt(d+1))
		d++
		if d <= lq {
			if row[d] > s.k+dm {
				return
			}
		} else if row[lq] > s.k+int(n.maxLen)-d {
			return
		}
	}
	if n.id != noID {
		if dist := edit.RowDistance(row); dist <= s.k {
			s.emit(n.id, dist)
		}
	}
	for c := i + 1; c < n.end; c = s.nodes[c].end {
		s.descendPaper(c, row, d)
	}
}
