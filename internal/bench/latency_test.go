package bench

import (
	"strings"
	"testing"

	"simsearch/internal/core"
)

func TestMeasureLatencies(t *testing.T) {
	cfg := tinyConfig()
	w := CityWorkload(cfg)
	eng := core.NewTrie(w.Data, true)
	s := measureLatencies(eng, w.Queries)
	if s.Count != len(w.Queries) {
		t.Errorf("Count = %d, want %d", s.Count, len(w.Queries))
	}
	if s.Total <= 0 || s.P50 > s.P99 {
		t.Errorf("summary = %+v", s)
	}
}

func TestLatencyReport(t *testing.T) {
	cfg := tinyConfig()
	w := CityWorkload(cfg)
	var sb strings.Builder
	LatencyReport(&sb, w, []core.Searcher{core.NewTrie(w.Data, true)})
	out := sb.String()
	for _, want := range []string{"Per-query latency", "trie/compressed", "all queries", "k=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
