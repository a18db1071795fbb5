package core

import (
	"testing"

	"simsearch/internal/trie"
)

func TestTrieAccessors(t *testing.T) {
	tr := NewTrie(testData, true)
	if tr.tree == nil || tr.Len() != len(testData) {
		t.Error("the trie wraps no tree, or the wrong one")
	}
	if got := NewTrie(testData, true, trie.WithModernPruning()).Name(); got != "trie/compressed+modern" {
		t.Errorf("modern name: %q", got)
	}
}

func TestTopKGenericEngines(t *testing.T) {
	// Exercise the geometric radius growth for distant neighbours.
	data := []string{"aaaaaaaaaa", "aaaaaaaabb", "zzzzzzzzzz"}
	eng := NewCascade(data)
	ms := TopK(eng, "aaaaaaaaaa", 2, 8)
	if len(ms) != 2 || ms[0].ID != 0 || ms[0].Dist != 0 || ms[1].ID != 1 || ms[1].Dist != 2 {
		t.Errorf("TopK = %v", ms)
	}
	// Distant nearest neighbour forces several radius expansions.
	m, ok := Nearest(eng, "zzzzzzzazz", 9)
	if !ok || m.ID != 2 || m.Dist != 1 {
		t.Errorf("Nearest = %v, %v", m, ok)
	}
	if _, ok := Nearest(eng, "qqq", 0); ok {
		t.Error("impossible nearest found")
	}
	if got := TopK(eng, "x", 0, 3); got != nil {
		t.Errorf("k=0: %v", got)
	}
}
