package httpapi

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simsearch/internal/cache"
	"simsearch/internal/core"
	"simsearch/internal/exec"
	"simsearch/internal/pool"
)

// slowOnSearcher answers instantly except for one poisoned query text, which
// blocks until the context fires — the one-bad-apple batch scenario.
type slowOnSearcher struct{ slow string }

func (s slowOnSearcher) Search(q core.Query) []core.Match {
	ms, _ := s.SearchContext(context.Background(), q)
	return ms
}
func (s slowOnSearcher) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	if q.Text == s.slow {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return []core.Match{{ID: 0, Dist: 0}}, nil
}
func (s slowOnSearcher) Name() string { return "slow-on-stub" }
func (s slowOnSearcher) Len() int     { return 1 }

// TestBatchPerQueryErrorParity is the regression test for the whole-batch-504
// bug: one slow query inside a batch must report its own per-result error —
// and the rest of the batch must succeed — identically on the sharded path
// (executor scheduler, exec QueryTimeout), on the serial fallback path
// (plain engine, Server.QueryTimeout) and on that path under the result
// cache.
func TestBatchPerQueryErrorParity(t *testing.T) {
	shardData := []string{"a", "b", "c", "d"}
	sharded := New(exec.New(shardData, exec.Options{
		Shards:       2,
		QueryTimeout: 15 * time.Millisecond,
		Factory:      func(d []string) core.Searcher { return slowOnSearcher{slow: "stall"} },
		// Wide enough that no fast task queues behind a stalled one even on
		// a single-core runner (per-query timers start at batch submission).
		Runner: pool.Fixed{Workers: 8},
	}), shardData)

	serial := New(slowOnSearcher{slow: "stall"}, []string{"a"})
	serial.QueryTimeout = 15 * time.Millisecond

	// The cache forwards its misses to the same serial loop, which must
	// still see the per-query budget. Timeout bounds the whole request, so
	// a budget lost on the way fails fast as a 504 instead of hanging.
	cachedSerial := New(cache.New(slowOnSearcher{slow: "stall"}, cache.Options{}), []string{"a"})
	cachedSerial.QueryTimeout = 15 * time.Millisecond
	cachedSerial.Timeout = 2 * time.Second

	for _, tc := range []struct {
		path string
		srv  *Server
	}{{"sharded", sharded}, {"serial", serial}, {"cached-serial", cachedSerial}} {
		t.Run(tc.path, func(t *testing.T) {
			ts := httptest.NewServer(tc.srv)
			defer ts.Close()
			var resp BatchResponse
			r := postJSON(t, ts.URL+"/search/batch",
				`{"queries":[{"q":"ok","k":1},{"q":"stall","k":1},{"q":"fine","k":1}]}`, &resp)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200 despite the slow query", r.StatusCode)
			}
			if len(resp.Results) != 3 {
				t.Fatalf("results = %+v", resp.Results)
			}
			for _, i := range []int{0, 2} {
				if resp.Results[i].Error != "" || len(resp.Results[i].Matches) == 0 {
					t.Errorf("fast query %d starved by the slow one: %+v", i, resp.Results[i])
				}
			}
			if resp.Results[1].Error == "" || len(resp.Results[1].Matches) != 0 {
				t.Errorf("slow query did not report its own error: %+v", resp.Results[1])
			}
		})
	}
}

func TestBatchBodyLimit(t *testing.T) {
	srv := New(core.NewTrie(data, true), data)
	srv.MaxBody = 64
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Under the cap: served normally.
	var ok BatchResponse
	r := postJSON(t, ts.URL+"/search/batch", `{"queries":[{"q":"bern"}]}`, &ok)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("small body status %d", r.StatusCode)
	}

	// Over the cap: 413 with the limit in the message, body never decoded.
	big := `{"queries":[{"q":"` + strings.Repeat("a", 256) + `"}]}`
	var e ErrorResponse
	r = postJSON(t, ts.URL+"/search/batch", big, &e)
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body status %d, want 413", r.StatusCode)
	}
	if !strings.Contains(e.Error, "64") {
		t.Errorf("413 message %q does not name the limit", e.Error)
	}
}

func TestQueryLengthLimit(t *testing.T) {
	srv := New(core.NewTrie(data, true), data)
	srv.MaxQueryLen = 8
	ts := httptest.NewServer(srv)
	defer ts.Close()

	long := strings.Repeat("q", 9)
	for _, url := range []string{
		"/search?q=" + long + "&k=1",
		"/topk?q=" + long + "&n=2&maxk=2",
		"/hamming?q=" + long + "&k=1",
	} {
		var e ErrorResponse
		r := getJSON(t, ts.URL+url, &e)
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, r.StatusCode)
		}
		if !strings.Contains(e.Error, "8") {
			t.Errorf("%s: message %q does not name the limit", url, e.Error)
		}
	}
	var e ErrorResponse
	r := postJSON(t, ts.URL+"/search/batch",
		`{"queries":[{"q":"ok"},{"q":"`+long+`"}]}`, &e)
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("batch: status %d, want 400", r.StatusCode)
	}

	// At the cap: accepted.
	var sr SearchResponse
	r = getJSON(t, ts.URL+"/search?q="+strings.Repeat("q", 8)+"&k=1", &sr)
	if r.StatusCode != http.StatusOK {
		t.Errorf("at-limit query rejected: %d", r.StatusCode)
	}
}

// TestStatsAndMetricsCache checks that a cached sharded engine surfaces both
// the cache section and the per-shard section on /stats, and the
// simsearch_cache_* series on /metrics — the decorator chain is walked, not
// just type-switched at the top.
func TestStatsAndMetricsCache(t *testing.T) {
	eng := cache.New(exec.New(data, exec.Options{Shards: 2}), cache.Options{Capacity: 8})
	ts := httptest.NewServer(New(eng, data))
	defer ts.Close()

	var sr SearchResponse
	getJSON(t, ts.URL+"/search?q=bern&k=1", &sr) // miss
	getJSON(t, ts.URL+"/search?q=bern&k=1", &sr) // hit

	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Cache == nil {
		t.Fatal("/stats has no cache section for a cached engine")
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 || stats.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", stats.Cache)
	}
	if stats.Cache.HitRate <= 0 {
		t.Errorf("hit rate = %v", stats.Cache.HitRate)
	}
	if len(stats.Shards) != 2 {
		t.Errorf("cached sharded engine lost its shard section: %+v", stats.Shards)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"simsearch_cache_hits_total",
		"simsearch_cache_misses_total",
		"simsearch_cache_coalesced_total",
		"simsearch_cache_evictions_total",
		"simsearch_cache_entries",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	// A cache-wrapped trie serves /hamming from the cached edit search.
	cachedTrie := httptest.NewServer(New(cache.New(core.NewTrie(data, true), cache.Options{}), data))
	defer cachedTrie.Close()
	var hr SearchResponse
	if r := getJSON(t, cachedTrie.URL+"/hamming?q=bern&k=1", &hr); r.StatusCode != http.StatusOK {
		t.Errorf("/hamming on cached trie: status %d", r.StatusCode)
	} else if len(hr.Matches) != 1 || hr.Matches[0].String != "bern" {
		t.Errorf("/hamming on cached trie: %+v", hr.Matches)
	}

	// An uncached engine reports no cache section.
	plain := httptest.NewServer(New(core.NewTrie(data, true), data))
	defer plain.Close()
	var plainStats statsResponse
	getJSON(t, plain.URL+"/stats", &plainStats)
	if plainStats.Cache != nil {
		t.Errorf("uncached engine reports cache stats: %+v", plainStats.Cache)
	}
}
