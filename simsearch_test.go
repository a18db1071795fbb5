package simsearch_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"simsearch"
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
		simsearch.NewBitParallel(cities, 2),
		simsearch.NewCascade(cities),
		simsearch.New(cities, simsearch.Options{Algorithm: simsearch.Trie, Uncompressed: true}),
		simsearch.New(cities, simsearch.Options{Algorithm: simsearch.Trie, FrequencyAlphabet: "aeiou"}),
		simsearch.New(cities, simsearch.Options{SortByLength: true}),
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
	if err := simsearch.SaveStrings(path, cities); err != nil {
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
