package simsearch_test

import (
	"testing"

	"simsearch"
	"simsearch/internal/core"
)

// TestNewRouterFacade: NewAuto and the two deprecated router names build the
// filtered sweep and nothing else, per shard too, and answer as the DP scan
// does on the inputs the router's prior used to keep off the sweep — corpora
// too small to amortize a build, and a threshold permissive for the strings.
func TestNewRouterFacade(t *testing.T) {
	names := simsearch.GenerateCities(17, 11)
	reads := simsearch.GenerateDNAReads(17, 11)
	cases := []struct {
		name string
		data []string
		want string
		q    simsearch.Query
	}{
		{"no strings", nil, "cascade/dna", simsearch.Query{Text: "berlin", K: 2}},
		{"one name", names[:1], "cascade/bytes", simsearch.Query{Text: names[0], K: 1}},
		{"17 names", names, "cascade/bytes", simsearch.Query{Text: names[3], K: 3}},
		{"k = 16 on twelve names", names[:12], "cascade/bytes", simsearch.Query{Text: "x", K: 16}},
		{"one read", reads[:1], "cascade/dna", simsearch.Query{Text: reads[0], K: 0}},
		{"17 reads", reads, "cascade/dna", simsearch.Query{Text: reads[5], K: 16}},
	}
	for _, tc := range cases {
		want := simsearch.NewScan(tc.data).Search(tc.q)
		sharded := simsearch.NewSharded(tc.data, 2, simsearch.Options{Algorithm: simsearch.Router})
		for i, se := range sharded.ShardEngines() {
			if _, ok := se.(*core.Cascade); !ok {
				t.Errorf("%s: shard %d holds a %T, want *core.Cascade", tc.name, i, se)
			}
		}
		if got := sharded.Search(tc.q); !matchesEqual(got, want) {
			t.Errorf("%s: sharded answers %v, the scan %v", tc.name, got, want)
		}
		for ctor, eng := range map[string]simsearch.Searcher{
			"NewAuto":   simsearch.NewAuto(tc.data, tc.q.K),
			"NewRouter": simsearch.NewRouter(tc.data),
			"New":       simsearch.New(tc.data, simsearch.Options{Algorithm: simsearch.Router}),
		} {
			if eng.Name() != tc.want || eng.Len() != len(tc.data) {
				t.Errorf("%s: %s is %q over %d strings, want %q over %d",
					tc.name, ctor, eng.Name(), eng.Len(), tc.want, len(tc.data))
			}
			if got := eng.Search(tc.q); !matchesEqual(got, want) {
				t.Errorf("%s: %s answers %v, the scan %v", tc.name, ctor, got, want)
			}
		}
	}
}

func TestNewAutomatonFacade(t *testing.T) {
	eng := simsearch.NewAutomaton(cities)
	if eng.Name() == "" {
		t.Fatal("empty name")
	}
	qs := []simsearch.Query{{Text: "berlin", K: 1}, {Text: "bonn", K: 0}}
	if err := simsearch.Verify(eng, cities, qs); err != nil {
		t.Fatal(err)
	}
}
