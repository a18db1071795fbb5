package simsearch_test

import (
	"testing"

	"simsearch"
	"simsearch/internal/router"
)

func TestNewRouterFacade(t *testing.T) {
	eng := simsearch.NewRouter(cities)
	if eng.Name() != "router" || eng.Len() != len(cities) {
		t.Fatalf("Name=%q Len=%d", eng.Name(), eng.Len())
	}
	qs := []simsearch.Query{
		{Text: "berlin", K: 0}, {Text: "berlni", K: 1}, {Text: "xx", K: 2},
	}
	if err := simsearch.Verify(eng, cities, qs); err != nil {
		t.Fatal(err)
	}
}

// TestNewAutoColdStartPrior pins the promise in NewAuto's doc comment:
// before any latency feedback, the router's cold-start prior keeps the old
// static planner's scan rules (internal/core.Auto) — scan below the
// build-amortization size, scan again when the threshold is permissive
// relative to string length — and, where that planner chose the modern trie,
// prefers the cascade from k = 0 through k = 8, on city names and reads, and
// the trie past it.
func TestNewAutoColdStartPrior(t *testing.T) {
	big := simsearch.GenerateCities(5000, 11)
	reads := simsearch.GenerateDNAReads(5000, 11)
	cases := []struct {
		name string
		data []string
		q    simsearch.Query
		want string
	}{
		{"small corpus -> scan", cities, simsearch.Query{Text: "berlin", K: 2}, "bitparallel"},
		{"big exact -> cascade", big, simsearch.Query{Text: big[0], K: 0}, "cascade"},
		{"big selective -> cascade", big, simsearch.Query{Text: big[0], K: 1}, "cascade"},
		{"big small-k -> cascade", big, simsearch.Query{Text: big[0], K: 2}, "cascade"},
		{"reads exact -> cascade", reads, simsearch.Query{Text: reads[0], K: 0}, "cascade"},
		{"reads mid-k -> cascade", reads, simsearch.Query{Text: reads[0], K: 8}, "cascade"},
		{"reads past the window -> trie", reads, simsearch.Query{Text: reads[0], K: 9}, "trie"},
		{"permissive k -> scan", big, simsearch.Query{Text: "x", K: 30}, "bitparallel"},
	}
	for _, tc := range cases {
		eng, ok := simsearch.NewAuto(tc.data, tc.q.K).(*router.Engine)
		if !ok {
			t.Fatalf("%s: NewAuto did not return a router", tc.name)
		}
		if got := eng.Preferred(tc.q); got != tc.want {
			t.Errorf("%s: cold-start preferred %q, want %q", tc.name, got, tc.want)
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
