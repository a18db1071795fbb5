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
// (executor scheduler), on the serial fallback path (plain engine) and on
// that path under the result cache — all from the one Server.QueryTimeout.
func TestBatchPerQueryErrorParity(t *testing.T) {
	shardData := []string{"a", "b", "c", "d"}
	sharded := New(exec.New(shardData, exec.Options{
		Shards:  2,
		Factory: func(d []string) core.Searcher { return slowOnSearcher{slow: "stall"} },
		// Wide enough that no fast task queues behind a stalled one even on
		// a single-core runner (per-query timers start at batch submission).
		Runner: pool.Fixed{Workers: 8},
	}), shardData)
	sharded.QueryTimeout = 15 * time.Millisecond

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

// TestBatchBodyLimit pins the body cap's edge on a shard server: a batch
// body of exactly maxBody bytes is read and answered, one byte more earns
// 413. (The rejection itself, and its message, is a case of the ladder both
// tiers share: distrib's TestErrorLadder.)
func TestBatchBodyLimit(t *testing.T) {
	ts := httptest.NewServer(New(core.NewTrie(data, true), data))
	defer ts.Close()
	for _, size := range []int{maxBody, maxBody + 1} {
		// The padding is JSON whitespace, so the body is valid at any size.
		q := `{"queries":[{"q":"bern"}]}`
		body := q[:len(q)-1] + strings.Repeat(" ", size-len(q)) + "}"
		var resp BatchResponse
		r := postJSON(t, ts.URL+"/search/batch", body, &resp)
		if want := map[bool]int{true: http.StatusOK, false: http.StatusRequestEntityTooLarge}[size <= maxBody]; r.StatusCode != want {
			t.Errorf("%d-byte body: status %d, want %d", size, r.StatusCode, want)
		}
	}
}

// TestQueryLengthLimit pins the length cap on the endpoints only a shard
// server has, /topk and /hamming, and its edge on every query endpoint: a
// text of maxQueryLen bytes is answered. (/search and batch rejections are
// cases of distrib's TestErrorLadder.)
func TestQueryLengthLimit(t *testing.T) {
	ts := httptest.NewServer(New(core.NewTrie(data, true), data))
	defer ts.Close()

	for _, n := range []int{maxQueryLen, maxQueryLen + 1} {
		q := strings.Repeat("q", n)
		for _, url := range []string{
			"/search?q=" + q + "&k=1",
			"/topk?q=" + q + "&n=2&maxk=2",
			"/hamming?q=" + q + "&k=1",
		} {
			var e errorResponse
			r := getJSON(t, ts.URL+url, &e)
			if n <= maxQueryLen && r.StatusCode != http.StatusOK {
				t.Errorf("%d-byte query on %s: status %d, want 200", n, url[:strings.Index(url, "?")], r.StatusCode)
			}
			if n > maxQueryLen && (r.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "1024")) {
				t.Errorf("%d-byte query on %s: %d %q, want 400 naming the limit", n, url[:strings.Index(url, "?")], r.StatusCode, e.Error)
			}
		}
	}
	var resp BatchResponse
	r := postJSON(t, ts.URL+"/search/batch", `{"queries":[{"q":"`+strings.Repeat("q", maxQueryLen)+`"}]}`, &resp)
	if r.StatusCode != http.StatusOK {
		t.Errorf("batch of a %d-byte query: status %d, want 200", maxQueryLen, r.StatusCode)
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
