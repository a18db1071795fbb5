// Package bktree implements a Burkhard–Keller tree, the classic metric index
// for edit-distance search: edit distance is a metric (the internal/edit
// property tests verify the axioms), so the triangle inequality prunes
// subtrees whose distance-to-pivot window cannot contain matches. No engine,
// paper table or benchmark workload runs it any more — it lost to the words
// sweep on every Table XI cell (EXPERIMENTS.md) — and the package stands
// alone, checked against a scan by its own tests, until it is deleted.
package bktree

import (
	"simsearch/internal/edit"
)

// Match is one search result.
type Match struct {
	ID   int32
	Dist int
}

type node struct {
	str      string
	ids      []int32
	children map[int]*node // keyed by distance to this node's string
}

// Tree is a BK-tree over a set of strings.
type Tree struct {
	root  *node
	count int
	nodes int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Build constructs a tree over data; string i is inserted with ID i.
func Build(data []string) *Tree {
	t := New()
	for i, s := range data {
		t.Insert(s, int32(i))
	}
	return t
}

// Insert adds s with the given ID.
func (t *Tree) Insert(s string, id int32) {
	t.count++
	if t.root == nil {
		t.root = &node{str: s, ids: []int32{id}}
		t.nodes = 1
		return
	}
	n := t.root
	for {
		d := edit.Distance(s, n.str)
		if d == 0 {
			n.ids = append(n.ids, id)
			return
		}
		if n.children == nil {
			n.children = make(map[int]*node)
		}
		child, ok := n.children[d]
		if !ok {
			n.children[d] = &node{str: s, ids: []int32{id}}
			t.nodes++
			return
		}
		n = child
	}
}

// Len returns the number of inserted strings.
func (t *Tree) Len() int { return t.count }

// NodeCount returns the number of distinct tree nodes.
func (t *Tree) NodeCount() int { return t.nodes }

// Search returns every string within edit distance k of q.
func (t *Tree) Search(q string, k int) []Match {
	var out []Match
	t.SearchFunc(q, k, func(id int32, d int) {
		out = append(out, Match{ID: id, Dist: d})
	})
	return out
}

// SearchFunc streams matches to fn. By the triangle inequality, a child at
// distance c from its parent can only contain matches if
// |d(q,parent) - c| <= k, so only children with c in [d-k, d+k] are visited.
func (t *Tree) SearchFunc(q string, k int, fn func(id int32, dist int)) {
	if t.root == nil || k < 0 {
		return
	}
	var visit func(n *node)
	visit = func(n *node) {
		d := edit.Distance(q, n.str)
		if d <= k {
			for _, id := range n.ids {
				fn(id, d)
			}
		}
		for c, child := range n.children {
			if c >= d-k && c <= d+k {
				visit(child)
			}
		}
	}
	visit(t.root)
}
