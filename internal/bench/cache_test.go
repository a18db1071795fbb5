package bench

import (
	"strings"
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
)

func TestCacheReplay(t *testing.T) {
	data := dataset.Cities(400, 1)
	wl := Workload{Name: "city", Data: data, Ks: []int{1, 2}}
	qs := zipfQueries(wl, 200, 1.3, 42)
	if len(qs) != 200 {
		t.Fatalf("stream length %d", len(qs))
	}

	res := cacheReplay(core.NewTrie(data, true), qs, 64)
	if res.Queries != 200 || res.Capacity != 64 {
		t.Errorf("result header = %+v", res)
	}
	// The serial replay has no concurrency: every lookup is a hit or a miss.
	if res.Stats.Hits+res.Stats.Misses != 200 || res.Stats.Coalesced != 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	// A Zipf stream with verbatim repeats must produce some hits, and a
	// 64-entry cache cannot hold the whole key space without misses.
	if res.Stats.Hits == 0 || res.Stats.Misses == 0 {
		t.Errorf("degenerate replay: %+v", res.Stats)
	}
	if res.Uncached <= 0 || res.Cached <= 0 || res.Speedup() <= 0 {
		t.Errorf("timings = %+v", res)
	}

	var b strings.Builder
	CacheReport(&b, wl, core.NewTrie(data, true), 100, 32, 1.3)
	out := b.String()
	for _, want := range []string{"cache replay (city)", "hit_rate=", "speedup=", "hit path:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
