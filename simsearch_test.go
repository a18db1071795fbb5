package simsearch_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"simsearch"
	"simsearch/internal/core"
	"simsearch/internal/dataset"
)

var cities = []string{"berlin", "bern", "bonn", "ulm", "munich", "köln"}

func TestNewScanFindsMatches(t *testing.T) {
	eng := simsearch.NewScan(cities)
	// "berlni" is 2 edits from "berlin" (transposed l/n counts as two
	// substitutions) and also 2 deletions from "bern".
	ms := eng.Search(simsearch.Query{Text: "berlni", K: 2})
	if len(ms) != 2 || ms[0].ID != 0 || ms[0].Dist != 2 || ms[1].ID != 1 || ms[1].Dist != 2 {
		t.Errorf("got %v", ms)
	}
	ms = eng.Search(simsearch.Query{Text: "berlin", K: 0})
	if len(ms) != 1 || ms[0].ID != 0 || ms[0].Dist != 0 {
		t.Errorf("exact search got %v", ms)
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	qs := []simsearch.Query{
		{Text: "berlin", K: 2}, {Text: "bern", K: 1}, {Text: "x", K: 0},
	}
	want := simsearch.NewScan(cities)
	engines := []simsearch.Searcher{
		simsearch.NewIndex(cities),
		simsearch.NewParallelScan(cities, 2),
		simsearch.NewCascade(cities),
		core.NewTrie(cities, false),
		core.NewTrie(cities, true),
		simsearch.New(cities, simsearch.Options{Workers: 4}),
	}
	for _, eng := range engines {
		for _, q := range qs {
			if got := eng.Search(q); !reflect.DeepEqual(got, want.Search(q)) {
				t.Errorf("%s diverges on %+v: %v", eng.Name(), q, got)
			}
		}
		if err := simsearch.Verify(eng, cities, qs); err != nil {
			t.Errorf("Verify(%s): %v", eng.Name(), err)
		}
	}
}

func TestSearchBatch(t *testing.T) {
	eng := simsearch.NewParallelScan(cities, 3)
	qs := []simsearch.Query{{Text: "berlin", K: 1}, {Text: "ulm", K: 0}}
	batch := simsearch.SearchBatch(eng, qs)
	if len(batch) != 2 {
		t.Fatalf("batch size %d", len(batch))
	}
	if len(batch[1]) != 1 || batch[1][0].ID != 3 {
		t.Errorf("batch[1] = %v", batch[1])
	}
}

func TestDistanceHelpers(t *testing.T) {
	if simsearch.Distance("AGGCGT", "AGAGT") != 2 {
		t.Error("Distance broken")
	}
	if !simsearch.WithinK("AGGCGT", "AGAGT", 2) || simsearch.WithinK("AGGCGT", "AGAGT", 1) {
		t.Error("WithinK broken")
	}
}

func TestGenerators(t *testing.T) {
	c := simsearch.GenerateCities(100, 1)
	d := simsearch.GenerateDNAReads(100, 1)
	if len(c) != 100 || len(d) != 100 {
		t.Fatal("generator sizes wrong")
	}
	qs := simsearch.GenerateQueries(c, 10, 2, 7)
	if len(qs) != 10 {
		t.Fatal("query count wrong")
	}
	for _, q := range qs {
		found := false
		for _, s := range c {
			if simsearch.WithinK(q, s, 2) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("query %q not near any dataset string", q)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.txt")
	if err := dataset.Save(path, cities); err != nil {
		t.Fatal(err)
	}
	got, err := simsearch.LoadStrings(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cities) {
		t.Errorf("round trip %v", got)
	}
}

// TestCallersOwnResults: every engine hands each query a result slice of its
// own, so a caller may overwrite what it got back without changing the next
// answer — on the cascade, the bit-parallel scan, the trie index and the live
// store, whose delta and seed segment both hold matches here.
func TestCallersOwnResults(t *testing.T) {
	data := simsearch.GenerateCities(300, 3)
	live := simsearch.NewLive(data, 1, simsearch.Options{})
	defer live.Close()
	all := append([]string(nil), data...)
	for _, s := range []string{data[0] + "x", data[1][1:]} {
		if id, _, err := live.Insert(s); err != nil || int(id) != len(all) {
			t.Fatalf("Insert(%q) = %d, %v; want id %d", s, id, err, len(all))
		}
		all = append(all, s)
	}
	oracle := func(corpus []string, q simsearch.Query) (out []simsearch.Match) {
		for i, s := range corpus {
			if d := simsearch.Distance(q.Text, s); d <= q.K {
				out = append(out, simsearch.Match{ID: int32(i), Dist: d})
			}
		}
		return out
	}
	for _, tc := range []struct {
		eng    simsearch.Searcher
		corpus []string
	}{
		{simsearch.NewCascade(data), data},
		{simsearch.NewIndex(data), data},
		{live, all},
	} {
		for k := 0; k <= 2; k++ {
			for _, text := range []string{data[0], data[1], data[2]} {
				q := simsearch.Query{Text: text, K: k}
				want := oracle(tc.corpus, q)
				for pass := 0; pass < 2; pass++ {
					got := tc.eng.Search(q)
					if !matchesEqual(got, want) {
						t.Fatalf("%s pass %d: Search(%+v) = %v, want %v", tc.eng.Name(), pass, q, got, want)
					}
					for i := range got {
						got[i] = simsearch.Match{ID: -1, Dist: -1}
					}
				}
			}
		}
	}
}
