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
// A node is 64 bytes: its label and child slices, the one ID of the string
// ending there (the few strings stored more than once keep their IDs in a
// side table, Tree.dups) and the length window. A finished tree is packed
// (Pack; Compress ends with it): copied once, depth first, into one slab of
// nodes, one of child pointers and one of label bytes, each exactly sized,
// so a descent walks memory in the order it was laid down and the tree holds
// no per-node allocation and no slice capacity left over from its growth.
package trie

import (
	"sort"

	"simsearch/internal/edit"
	"simsearch/internal/scan"
)

// Match is one search result: the ID the string was inserted with and its
// exact edit distance to the query.
type Match = scan.Match

// node is a prefix-tree node. In the uncompressed tree every node's label is
// a single byte; after Compress, chains of single-child non-terminal nodes
// are merged and labels grow to multi-byte edge fragments.
type node struct {
	label    []byte
	children []*node
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
	root       *node
	dups       [][]int32 // the IDs of each string inserted more than once, in insertion order
	nodeCount  int
	strCount   int
	compressed bool
	packed     bool
	modern     bool
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

// newTree returns an empty tree.
func newTree(opts ...Option) *Tree {
	t := &Tree{root: &node{id: noID, minLen: 1<<31 - 1}}
	t.nodeCount = 1
	for _, o := range opts {
		o(t)
	}
	return t
}

// Build constructs a tree over data; string i is inserted with ID i.
func Build(data []string, opts ...Option) *Tree {
	t := newTree(opts...)
	for i, s := range data {
		t.Insert(s, int32(i))
	}
	return t
}

// Insert adds s with the given ID, which must not be negative. Inserting into
// a compressed or packed tree is not supported and panics; build fully, then
// compress or pack.
func (t *Tree) Insert(s string, id int32) {
	if t.compressed || t.packed {
		panic("trie: Insert after Compress or Pack")
	}
	if id < 0 {
		panic("trie: negative ID")
	}
	n := t.root
	absorb(n, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		child := findChild(n, c)
		if child == nil {
			child = &node{label: []byte{c}, id: noID, minLen: 1<<31 - 1}
			insertChild(n, child)
			t.nodeCount++
		}
		n = child
		absorb(n, len(s))
	}
	switch {
	case n.id == noID:
		n.id = id
	case n.id >= 0:
		t.dups = append(t.dups, []int32{n.id, id})
		n.id = -2 - int32(len(t.dups)-1)
	default:
		t.dups[-2-n.id] = append(t.dups[-2-n.id], id)
	}
	t.strCount++
}

// absorb folds one string's length into a node's length window.
func absorb(n *node, slen int) {
	if int32(slen) < n.minLen {
		n.minLen = int32(slen)
	}
	if int32(slen) > n.maxLen {
		n.maxLen = int32(slen)
	}
}

func findChild(n *node, c byte) *node {
	// children are sorted by first label byte.
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.children[mid].label[0] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.children) && n.children[lo].label[0] == c {
		return n.children[lo]
	}
	return nil
}

func insertChild(n *node, child *node) {
	c := child.label[0]
	idx := sort.Search(len(n.children), func(i int) bool {
		return n.children[i].label[0] >= c
	})
	n.children = append(n.children, nil)
	copy(n.children[idx+1:], n.children[idx:])
	n.children[idx] = child
}

// Compress merges every chain of single-child, non-terminal nodes into one
// node with a multi-byte label (paper §4.2, Figure 4), then packs the tree.
// It reduces the node count and the number of per-node bookkeeping steps
// during search.
func (t *Tree) Compress() {
	if t.compressed {
		return
	}
	var walk func(n *node)
	walk = func(n *node) {
		for i, c := range n.children {
			for len(c.children) == 1 && c.id == noID {
				only := c.children[0]
				merged := &node{
					label:    append(append([]byte(nil), c.label...), only.label...),
					children: only.children,
					id:       only.id,
					minLen:   only.minLen,
					maxLen:   only.maxLen,
				}
				n.children[i] = merged
				c = merged
				t.nodeCount--
			}
			walk(c)
		}
	}
	walk(t.root)
	t.compressed = true
	t.Pack()
}

// Pack copies the finished tree, in preorder, into three exactly sized
// slabs — its nodes, their child pointers and their label bytes — and lets
// the nodes it was grown from go. Each node's children are a contiguous run
// of the pointer slab and its label a run of the byte slab, so the search
// follows the same pointers through memory laid out in the order it visits
// it. The tree takes no Insert after it; Compress may still run, and packs
// again.
func (t *Tree) Pack() {
	st := t.Stats() // every node but the root is one child pointer and a label
	p := packer{
		nodes:  make([]node, 0, st.Nodes),
		kids:   make([]*node, 0, st.Nodes-1),
		labels: make([]byte, 0, st.LabelBytes),
	}
	t.root = p.copy(t.root)
	t.packed = true
}

// packer holds the three slabs while Pack fills them. They are allocated at
// their final size, so appending never moves them and a pointer into one
// stays valid.
type packer struct {
	nodes  []node
	kids   []*node
	labels []byte
}

// copy appends n and, after it, its subtree to the slabs and returns n's
// copy. The copy's child pointers are reserved before the first child's
// subtree is copied, so siblings' pointers sit side by side.
func (p *packer) copy(n *node) *node {
	p.nodes = append(p.nodes, *n)
	m := &p.nodes[len(p.nodes)-1]
	at := len(p.labels)
	p.labels = append(p.labels, n.label...)
	m.label = p.labels[at:len(p.labels):len(p.labels)]
	at = len(p.kids)
	p.kids = append(p.kids, n.children...)
	m.children = p.kids[at:len(p.kids):len(p.kids)]
	for i, c := range n.children {
		m.children[i] = p.copy(c)
	}
	return m
}

// Modern reports whether WithModernPruning was selected.
func (t *Tree) Modern() bool { return t.modern }

// NodeCount returns the number of nodes including the root. The paper's
// Figure 4 compression claim ("half of the nodes") is checked against this.
func (t *Tree) NodeCount() int { return t.nodeCount }

// Len returns the number of inserted strings.
func (t *Tree) Len() int { return t.strCount }

// Stats summarizes structural properties for the experiment reports.
type Stats struct {
	Nodes      int
	Strings    int
	Compressed bool
	MaxDepth   int // depth in label bytes
	LabelBytes int // resident label bytes (the tree's dominant memory term)
}

// Stats computes structural statistics.
func (t *Tree) Stats() Stats {
	s := Stats{Nodes: t.nodeCount, Strings: t.strCount, Compressed: t.compressed}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		for _, c := range n.children {
			s.LabelBytes += len(c.label)
			walk(c, depth+len(c.label))
		}
	}
	walk(t.root, 0)
	return s
}

// Search returns every inserted string within edit distance k of q, with its
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
	s := searcher{q: q, k: k, dups: t.dups}
	// The root may itself be terminal for the empty string.
	if t.root.id != noID && len(q) <= k {
		s.emit(t.root.id, len(q))
	}
	if t.modern && k <= edit.MaxBandK {
		s.pat = edit.CompileMyers(q)
		band := edit.StartBand(k)
		for _, c := range t.root.children {
			s.descend(c, band, 0)
		}
		return s.out
	}
	row := edit.InitialRow(q)
	for _, c := range t.root.children {
		s.descendPaper(c, row, 0)
	}
	return s.out
}

type searcher struct {
	q    string
	k    int
	out  []Match
	dups [][]int32          // the tree's duplicate IDs (see node.id)
	pat  *edit.MyersPattern // q, compiled for the modern descent
	rows [][]int            // the paper descent's row buffer per byte depth, lazily grown
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
// prefix of length depth, over n's label and stops the first byte after
// which no length in n's window can still end within k (edit.StepBand; an
// empty intersection with [len(q)-k, len(q)+k] stops it before the first).
func (s *searcher) descend(n *node, parent edit.Band, depth int) {
	band, ok := s.pat.StepBand(parent, n.label, depth, s.k, int(n.minLen), int(n.maxLen))
	if !ok {
		return
	}
	depth += len(n.label)
	if n.id != noID {
		if dist, ok := s.pat.BandDistance(band, depth, s.k); ok {
			s.emit(n.id, dist)
		}
	}
	for _, c := range n.children {
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
func (s *searcher) descendPaper(n *node, parentRow []int, depth int) {
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
	for _, c := range n.label {
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
	for _, c := range n.children {
		s.descendPaper(c, row, d)
	}
}
