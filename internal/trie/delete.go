package trie

// Delete removes one occurrence of s inserted with the given ID. It reports
// whether the (s, id) pair was present. On an uncompressed tree, branches
// left without any terminal descendants are pruned; on a compressed tree
// only the ID is removed and the structure is left intact (path-compressed
// nodes would otherwise need re-merging, and search correctness does not
// depend on pruning). The minLen/maxLen and frequency pruning bounds are
// left conservative (they may over-approximate after deletions, which keeps
// search sound but may prune slightly less). No serving path deletes from a
// trie: the mutable index is the lsm store behind NewLive.
func (t *Tree) Delete(s string, id int32) bool {
	// Walk down recording the path.
	type step struct {
		parent *node
		child  *node
	}
	var path []step
	n := t.root
	rest := s
	for len(rest) > 0 {
		child := findChild(n, rest[0])
		if child == nil {
			return false
		}
		label := child.label
		if len(rest) < len(label) {
			return false
		}
		for i := range label {
			if label[i] != rest[i] {
				return false
			}
		}
		path = append(path, step{parent: n, child: child})
		rest = rest[len(label):]
		n = child
	}
	// Remove the id.
	found := false
	for i, v := range n.ids {
		if v == id {
			n.ids = append(n.ids[:i], n.ids[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	t.strCount--
	if t.compressed {
		return true
	}
	// Prune now-empty leaf chains bottom-up.
	for i := len(path) - 1; i >= 0; i-- {
		st := path[i]
		if len(st.child.ids) > 0 || len(st.child.children) > 0 {
			break
		}
		removeChild(st.parent, st.child.label[0])
		t.nodeCount--
	}
	return true
}

func removeChild(n *node, c byte) {
	for i, child := range n.children {
		if child.label[0] == c {
			n.children = append(n.children[:i], n.children[i+1:]...)
			return
		}
	}
}

// Contains reports whether s was inserted with the given ID and not deleted.
func (t *Tree) Contains(s string, id int32) bool {
	n := t.root
	rest := s
	for len(rest) > 0 {
		child := findChild(n, rest[0])
		if child == nil {
			return false
		}
		label := child.label
		if len(rest) < len(label) {
			return false
		}
		for i := range label {
			if label[i] != rest[i] {
				return false
			}
		}
		rest = rest[len(label):]
		n = child
	}
	for _, v := range n.ids {
		if v == id {
			return true
		}
	}
	return false
}
