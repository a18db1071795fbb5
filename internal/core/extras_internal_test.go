package core

import (
	"bytes"
	"testing"

	"simsearch/internal/trie"
)

func TestTrieAccessorsAndPersistence(t *testing.T) {
	tr := NewTrie(testData, true)
	if tr.Tree() == nil || tr.Tree().Len() != len(testData) {
		t.Error("Tree() accessor broken")
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrie(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != tr.Name() {
		t.Errorf("name %q != %q", got.Name(), tr.Name())
	}
	q := Query{Text: "berlin", K: 2}
	if !Equal(got.Search(q), tr.Search(q)) {
		t.Error("round-tripped trie diverges")
	}
	if _, err := ReadTrie(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
	// Modern trie name propagates through persistence.
	modern := NewTrie(testData, true, trie.WithModernPruning())
	buf.Reset()
	if _, err := modern.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err = ReadTrie(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "trie/compressed+modern" {
		t.Errorf("modern name lost: %q", got.Name())
	}
}

func TestTrieSearchHamming(t *testing.T) {
	data := []string{"ACGT", "ACGA", "AC"}
	tr := NewTrie(data, true)
	ms := tr.SearchHamming("ACGT", 1)
	if len(ms) != 2 || ms[0].ID != 0 || ms[0].Dist != 0 || ms[1].ID != 1 || ms[1].Dist != 1 {
		t.Errorf("SearchHamming = %v", ms)
	}
}

func TestTopKGenericEngines(t *testing.T) {
	// Exercise the iterative-deepening path (non-trie engine) including the
	// geometric radius growth for distant neighbours.
	data := []string{"aaaaaaaaaa", "aaaaaaaabb", "zzzzzzzzzz"}
	eng := NewBKTree(data)
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
