package simsearch_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simsearch"
)

func TestJoinFacade(t *testing.T) {
	r := []string{"berlin", "ulm"}
	s := []string{"berlim", "ulm", "paris"}
	want := []simsearch.Pair{{R: 0, S: 0, Dist: 1}, {R: 1, S: 1, Dist: 0}}
	for _, eng := range []simsearch.Searcher{
		simsearch.NewIndex(s), simsearch.NewScan(s), simsearch.NewCascade(s),
	} {
		for _, workers := range []int{1, 2} {
			if pairs := simsearch.Join(eng, r, 1, workers); !reflect.DeepEqual(pairs, want) {
				t.Errorf("%s workers=%d: got %v, want %v", eng.Name(), workers, pairs, want)
			}
		}
	}
}

func TestSelfJoinFacade(t *testing.T) {
	data := []string{"aaa", "aab", "zzz"}
	pairs := simsearch.SelfJoin(simsearch.NewCascade(data), data, 1, 1)
	want := []simsearch.Pair{{R: 0, S: 1, Dist: 1}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("got %v", pairs)
	}
}

func TestClustersFacade(t *testing.T) {
	data := []string{"berlin", "berlim", "tokyo"}
	groups := simsearch.Clusters(simsearch.NewIndex(data), data, 1, 2)
	if !reflect.DeepEqual(groups, [][]int32{{0, 1}, {2}}) {
		t.Errorf("groups = %v", groups)
	}
}

func TestTopKFacade(t *testing.T) {
	eng := simsearch.NewIndex(cities)
	ms := simsearch.TopK(eng, "berlni", 2, 3)
	if len(ms) != 2 || ms[0].Dist > ms[1].Dist {
		t.Errorf("TopK = %v", ms)
	}
	m, ok := simsearch.Nearest(eng, "bonn", 2)
	if !ok || cities[m.ID] != "bonn" || m.Dist != 0 {
		t.Errorf("Nearest = %v, %v", m, ok)
	}
	if _, ok := simsearch.Nearest(eng, "xxxxxxxxxxxxxxxx", 2); ok {
		t.Error("impossible neighbour found")
	}
}

func TestDistanceVariantsFacade(t *testing.T) {
	if simsearch.HammingDistance("ACGT", "AGGT") != 1 {
		t.Error("Hamming broken")
	}
	if simsearch.HammingDistance("a", "ab") != -1 {
		t.Error("Hamming length check broken")
	}
}

func TestHammingFacade(t *testing.T) {
	data := []string{"ACGT", "ACGA", "ACG", "AGGA"}
	want := []simsearch.Match{{ID: 0, Dist: 0}, {ID: 1, Dist: 1}}
	for _, eng := range []simsearch.Searcher{
		simsearch.NewIndex(data), simsearch.NewScan(data), simsearch.NewCascade(data),
	} {
		if ms := simsearch.HammingSearch(eng, data, "ACGT", 1); !reflect.DeepEqual(ms, want) {
			t.Errorf("%s: HammingSearch = %v, want %v", eng.Name(), ms, want)
		}
	}
}

func TestGenerateZipfQueriesFacade(t *testing.T) {
	data := simsearch.GenerateCities(500, 1)
	qs := simsearch.GenerateZipfQueries(data, 50, 2, 1.4, 3)
	if len(qs) != 50 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		ok := false
		for _, s := range data {
			if simsearch.WithinK(q, s, 2) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("query %q too far from the dataset", q)
		}
	}
}

func TestLoadSequencesFacade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.fasta")
	if err := os.WriteFile(path, []byte(">x\nACGT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := simsearch.LoadSequences(path)
	if err != nil || len(got) != 1 || got[0] != "ACGT" {
		t.Errorf("LoadSequences = %v, %v", got, err)
	}
}
