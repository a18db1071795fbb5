package httpapi

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/exec"
	"simsearch/internal/metrics"
)

// scrape GETs /metrics and parses the text exposition into sample name+label
// keys → values, failing the test on any malformed line.
func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpoint is the acceptance test: per-endpoint request counts,
// error counts, latency histograms, and per-shard counters all surface in
// parseable Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	eng := exec.New(data, exec.Options{Shards: 2})
	ts := httptest.NewServer(New(eng, data))
	defer ts.Close()

	// Two good requests, one 4xx.
	for _, u := range []string{"/search?q=berlni&k=2", "/search?q=bern&k=1", "/search?q=x&k=99"} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	m := scrape(t, ts.URL)
	if got := m[`simsearch_http_requests_total{endpoint="search"}`]; got != 3 {
		t.Errorf("search requests = %v, want 3", got)
	}
	if got := m[`simsearch_http_errors_total{class="4xx",endpoint="search"}`]; got != 1 {
		t.Errorf("search 4xx = %v, want 1", got)
	}
	if got := m[`simsearch_http_errors_total{class="5xx",endpoint="search"}`]; got != 0 {
		t.Errorf("search 5xx = %v, want 0", got)
	}
	if got := m[`simsearch_http_request_seconds_count{endpoint="search"}`]; got != 3 {
		t.Errorf("latency count = %v, want 3", got)
	}
	if got := m[`simsearch_http_request_seconds_bucket{endpoint="search",le="+Inf"}`]; got != 3 {
		t.Errorf("+Inf bucket = %v, want 3", got)
	}
	// Bucket counts are cumulative and non-decreasing.
	var prev float64
	for _, b := range metrics.DefLatencyBuckets {
		key := `simsearch_http_request_seconds_bucket{endpoint="search",le="` +
			strconv.FormatFloat(b.Seconds(), 'g', -1, 64) + `"}`
		v, ok := m[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket %s = %v decreased below %v", key, v, prev)
		}
		prev = v
	}
	// Per-shard counters: the two /search queries hit both shards.
	if got := m[`simsearch_shard_queries_total{shard="0"}`]; got != 2 {
		t.Errorf("shard 0 queries = %v, want 2", got)
	}
	if got := m[`simsearch_shard_task_seconds_count{shard="1"}`]; got != 2 {
		t.Errorf("shard 1 task latency count = %v, want 2", got)
	}
	// The scrape itself is instrumented too.
	if got := m[`simsearch_http_requests_total{endpoint="metrics"}`]; got != 0 {
		t.Errorf("metrics endpoint pre-counted: %v", got)
	}
	m2 := scrape(t, ts.URL)
	if got := m2[`simsearch_http_requests_total{endpoint="metrics"}`]; got != 1 {
		t.Errorf("metrics requests after first scrape = %v, want 1", got)
	}

	// POST /metrics is rejected.
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d", resp.StatusCode)
	}
}

// TestTopKTimeout is the regression test for /topk ignoring Server.Timeout:
// a blocking engine under a small timeout must produce 504, exactly like
// /search.
func TestTopKTimeout(t *testing.T) {
	srv := New(blockingSearcher{}, nil)
	srv.Timeout = 20 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var e errorResponse
	r := getJSON(t, ts.URL+"/topk?q=x&n=2&maxk=2", &e)
	if r.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("topk status = %d, want 504", r.StatusCode)
	}
}

// TestTopKHammingExpiredTimeout: with an already-expired deadline, /topk and
// /hamming over a trie report 504 instead of running to completion.
func TestTopKHammingExpiredTimeout(t *testing.T) {
	srv := New(core.NewTrie(data, true), data)
	srv.Timeout = time.Nanosecond // expired before the handler checks it
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, u := range []string{"/topk?q=berlni&n=2&maxk=2", "/hamming?q=bern&k=1"} {
		var e errorResponse
		r := getJSON(t, ts.URL+u, &e)
		if r.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s status = %d, want 504", u, r.StatusCode)
		}
	}
}

// TestStatsHealthMethods: /stats and /healthz are GET-only and /healthz
// declares its Content-Type.
func TestStatsHealthMethods(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	for _, u := range []string{"/stats", "/healthz"} {
		resp, err := http.Post(ts.URL+u, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status = %d, want 405", u, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/healthz Content-Type = %q", ct)
	}
}

// TestTopKClamp: n beyond maxTopK is clamped, not an error and not an
// unbounded allocation.
func TestTopKClamp(t *testing.T) {
	var many []string
	for i := 0; len(many) < 2*maxTopK; i++ {
		many = append(many, fmt.Sprintf("c%03d", i))
	}
	ts := httptest.NewServer(New(core.NewTrie(many, true), many))
	defer ts.Close()
	var resp SearchResponse
	r := getJSON(t, ts.URL+"/topk?q=c000&n=1000000&maxk=3", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if len(resp.Matches) != maxTopK {
		t.Errorf("clamp: %d matches of %d within reach, want %d", len(resp.Matches), len(many), maxTopK)
	}
}

// TestRequestSlowLog: a request over the threshold lands in the server's
// slow-query log with endpoint and engine fields.
func TestRequestSlowLog(t *testing.T) {
	var sb strings.Builder
	srv := New(core.NewTrie(data, true), data)
	srv.Slow = metrics.NewSlowLog(&sb, time.Nanosecond)
	srv.Slow.Register(srv.Registry())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var resp SearchResponse
	getJSON(t, ts.URL+"/search?q=bern&k=1", &resp)
	line := sb.String()
	for _, want := range []string{"slowquery", "endpoint=search", "engine=trie/compressed", `q="bern"`, "k=1"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log missing %q: %q", want, line)
		}
	}
	m := scrape(t, ts.URL)
	if got := m["simsearch_slow_queries_total"]; got < 1 {
		t.Errorf("slow counter = %v, want >= 1", got)
	}
}

// TestPprofGated: /debug/pprof is absent by default and served after
// EnablePprof.
func TestPprofGated(t *testing.T) {
	srv := New(core.NewTrie(data, true), data)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof before enable: status %d, want 404", resp.StatusCode)
	}
	srv.EnablePprof()
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof after enable: status %d, want 200", resp.StatusCode)
	}
}
