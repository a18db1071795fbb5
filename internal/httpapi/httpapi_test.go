package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simsearch/internal/cache"
	"simsearch/internal/core"
	"simsearch/internal/exec"
)

var data = []string{"berlin", "bern", "bonn", "ulm", "munich"}

func newTestServer() *httptest.Server {
	eng := core.NewTrie(data, true)
	return httptest.NewServer(New(eng, data))
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

func TestSearchEndpoint(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	var resp SearchResponse
	r := getJSON(t, ts.URL+"/search?q=berlni&k=2", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if len(resp.Matches) != 2 {
		t.Fatalf("matches = %v", resp.Matches)
	}
	if resp.Matches[0].String != "berlin" || resp.Matches[0].Dist != 2 {
		t.Errorf("first match %v", resp.Matches[0])
	}
	if resp.TookµS < 0 {
		t.Error("negative timing")
	}
}

func TestSearchDefaults(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	var resp SearchResponse
	getJSON(t, ts.URL+"/search?q=bern", &resp)
	if resp.K != 2 {
		t.Errorf("default k = %d", resp.K)
	}
}

func TestSearchErrors(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	cases := []struct {
		url  string
		code int
	}{
		{"/search", http.StatusBadRequest},            // no q
		{"/search?q=x&k=abc", http.StatusBadRequest},  // bad k
		{"/search?q=x&k=-1", http.StatusBadRequest},   // negative k
		{"/search?q=x&k=99", http.StatusBadRequest},   // k over MaxK
		{"/topk?q=x&n=0", http.StatusBadRequest},      // n < 1
		{"/topk?q=x&maxk=200", http.StatusBadRequest}, // maxk over cap
		{"/topk", http.StatusBadRequest},              // no q
	}
	for _, c := range cases {
		var e ErrorResponse
		r := getJSON(t, ts.URL+c.url, &e)
		if r.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.url, r.StatusCode, c.code)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", c.url)
		}
	}
}

func TestSearchMethodNotAllowed(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/search?q=x", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestTopKEndpoint(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	var resp SearchResponse
	getJSON(t, ts.URL+"/topk?q=berlni&n=2&maxk=3", &resp)
	if len(resp.Matches) != 2 {
		t.Fatalf("matches = %v", resp.Matches)
	}
	if resp.Matches[0].Dist > resp.Matches[1].Dist {
		t.Error("topk not distance-ordered")
	}
}

func TestHammingEndpoint(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	var resp SearchResponse
	getJSON(t, ts.URL+"/hamming?q=bern&k=1", &resp)
	if len(resp.Matches) != 1 || resp.Matches[0].String != "bern" {
		t.Errorf("matches = %v", resp.Matches)
	}
	var e ErrorResponse
	r := getJSON(t, ts.URL+"/hamming", &e)
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("missing q: %d", r.StatusCode)
	}
	r = getJSON(t, ts.URL+"/hamming?q=x&k=999", &e)
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("huge k: %d", r.StatusCode)
	}
	// Non-trie engine: 501.
	scanSrv := httptest.NewServer(New(core.NewSequential(data), data))
	defer scanSrv.Close()
	r = getJSON(t, scanSrv.URL+"/hamming?q=x&k=1", &e)
	if r.StatusCode != http.StatusNotImplemented {
		t.Errorf("non-trie engine: %d", r.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	var resp StatsResponse
	getJSON(t, ts.URL+"/stats", &resp)
	if resp.Count != len(data) || resp.Engine == "" || resp.MaxLen != 6 {
		t.Errorf("stats = %+v", resp)
	}
}

func TestStatsCascadeSection(t *testing.T) {
	// Thirty-two strings in the length window of ACGT at k = 1, in two blocks
	// of sixteen once the bucket is ordered by its count words (T counts
	// most): the second holds nothing but TTTT and falls to its summary
	// unread; in the first, TTTT and GGGG fall to the symbol counts, the
	// anagram TGCA only to the dinucleotide counts.
	dna := []string{"ACGT", "ACGA", "TTTT", "ACGTACGT", "GGGG", "TGCA"}
	for len(dna) < 6+27 {
		dna = append(dna, "TTTT")
	}
	// Served directly and, as simserve -shards 2 -cache serves it, one
	// cascade per shard under the executor and the cache: the section and
	// the series are the same, summed over shards. The second shard holds
	// seventeen TTTT, so its two blocks both fall unread, and the first
	// shard's window is the fifteen other strings of the direct case.
	for _, tc := range []struct {
		name    string
		eng     core.Searcher
		engine  string
		queries uint64
		swept   uint64
	}{
		{"direct", core.NewCascade(dna), "cascade/dna", 1, 16},
		{"two shards, cached", cache.New(exec.New(dna, exec.Options{Shards: 2, Factory: exec.CascadeFactory()}), cache.Options{}),
			"sharded-2/cascade/dna", 2, 15},
	} {
		srv := New(tc.eng, dna)
		ts := httptest.NewServer(srv)
		defer ts.Close()

		var sr SearchResponse
		getJSON(t, ts.URL+"/search?q=ACGT&k=1", &sr)
		if len(sr.Matches) != 2 {
			t.Fatalf("%s: cascade search matches = %v", tc.name, sr.Matches)
		}

		var resp StatsResponse
		getJSON(t, ts.URL+"/stats", &resp)
		if resp.Cascade == nil {
			t.Fatalf("%s: stats payload missing cascade section", tc.name)
		}
		cs := resp.Cascade
		if !strings.HasSuffix(resp.Engine, tc.engine) || cs.Queries != tc.queries || cs.ArenaBytes != 4*32+8 || cs.Buckets < 2 {
			t.Errorf("%s: engine %q, cascade stats = %+v", tc.name, resp.Engine, cs)
		}
		if cs.Candidates != 32 || cs.Swept != tc.swept || cs.Passed != 3 || cs.Survivors != 2 || cs.Matches != 2 {
			t.Errorf("%s: cascade survivor funnel = %+v, want 32 > %d > 3 > 2 = 2", tc.name, cs, tc.swept)
		}

		// The per-stage survivors must also be scrapeable on /metrics.
		var sb strings.Builder
		if _, err := srv.Registry().WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		body := sb.String()
		for _, want := range []string{
			fmt.Sprintf("simsearch_cascade_queries_total %d", tc.queries),
			`simsearch_cascade_stage_survivors_total{stage="length"} 32`,
			fmt.Sprintf(`simsearch_cascade_stage_survivors_total{stage="block"} %d`, tc.swept),
			`simsearch_cascade_stage_survivors_total{stage="frequency"} 3`,
			`simsearch_cascade_stage_survivors_total{stage="qgram"} 2`,
			`simsearch_cascade_stage_survivors_total{stage="verify"} 2`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s: metrics output missing %q", tc.name, want)
			}
		}
	}
}

func TestHealthEndpoint(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}

// --- Sharded serving path ----------------------------------------------------

func postJSON(t *testing.T, url string, body string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

func TestBatchEndpoint(t *testing.T) {
	// Sharded engine: the batch is answered by the executor's own scheduler.
	eng := exec.New(data, exec.Options{Shards: 2})
	ts := httptest.NewServer(New(eng, data))
	defer ts.Close()

	var resp BatchResponse
	r := postJSON(t, ts.URL+"/search/batch",
		`{"queries":[{"q":"berlni","k":2},{"q":"ulm","k":0},{"q":"zzz"}]}`, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if len(resp.Results[0].Matches) != 2 || resp.Results[0].Matches[0].String != "berlin" {
		t.Errorf("batch[0] = %+v", resp.Results[0])
	}
	if len(resp.Results[1].Matches) != 1 || resp.Results[1].Matches[0].String != "ulm" {
		t.Errorf("batch[1] = %+v", resp.Results[1])
	}
	if resp.Results[2].K != 2 || len(resp.Results[2].Matches) != 0 {
		t.Errorf("batch[2] = %+v", resp.Results[2])
	}

	// A non-sharded engine serves the same endpoint serially.
	plain := httptest.NewServer(New(core.NewTrie(data, true), data))
	defer plain.Close()
	var resp2 BatchResponse
	postJSON(t, plain.URL+"/search/batch", `{"queries":[{"q":"bern","k":1}]}`, &resp2)
	if len(resp2.Results) != 1 || len(resp2.Results[0].Matches) != 1 {
		t.Errorf("plain batch = %+v", resp2.Results)
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	srv := New(core.NewTrie(data, true), data)
	srv.MaxBatch = 2
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cases := []struct {
		body string
		code int
	}{
		{`{"queries":[]}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"queries":[{"q":""}]}`, http.StatusBadRequest},
		{`{"queries":[{"q":"x","k":-1}]}`, http.StatusBadRequest},
		{`{"queries":[{"q":"x","k":99}]}`, http.StatusBadRequest},
		{`{"queries":[{"q":"a"},{"q":"b"},{"q":"c"}]}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		var e ErrorResponse
		r := postJSON(t, ts.URL+"/search/batch", c.body, &e)
		if r.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.body, r.StatusCode, c.code)
		}
	}
	// GET is rejected.
	resp, err := http.Get(ts.URL + "/search/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", resp.StatusCode)
	}
}

// blockingSearcher blocks every query until its context is cancelled.
type blockingSearcher struct{}

func (blockingSearcher) Search(core.Query) []core.Match { select {} }
func (blockingSearcher) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (blockingSearcher) Name() string { return "blocking-stub" }
func (blockingSearcher) Len() int     { return 0 }

func TestRequestTimeout(t *testing.T) {
	srv := New(blockingSearcher{}, nil)
	srv.Timeout = 20 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var e ErrorResponse
	r := getJSON(t, ts.URL+"/search?q=x&k=1", &e)
	if r.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("search status = %d, want 504", r.StatusCode)
	}

	var resp BatchResponse
	r = postJSON(t, ts.URL+"/search/batch", `{"queries":[{"q":"x"}]}`, &resp)
	// The serial fallback surfaces the batch deadline as a request error.
	if r.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("batch status = %d, want 504", r.StatusCode)
	}
}

func TestBatchPerQueryDeadline(t *testing.T) {
	// A sharded executor over blocking shards with a per-query timeout:
	// the request succeeds and each query reports its own deadline error.
	ex := exec.New(make([]string, 4), exec.Options{
		Shards:       2,
		QueryTimeout: 10 * time.Millisecond,
		Factory:      func(d []string) core.Searcher { return blockingSearcher{} },
	})
	srv := New(ex, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var resp BatchResponse
	r := postJSON(t, ts.URL+"/search/batch", `{"queries":[{"q":"x"},{"q":"y"}]}`, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	for i, res := range resp.Results {
		if res.Error == "" || len(res.Matches) != 0 {
			t.Errorf("result %d = %+v, want per-query deadline error", i, res)
		}
	}
}

func TestStatsShards(t *testing.T) {
	eng := exec.New(data, exec.Options{Shards: 2})
	ts := httptest.NewServer(New(eng, data))
	defer ts.Close()
	// Answer one query so the counters move.
	var sr SearchResponse
	getJSON(t, ts.URL+"/search?q=bern&k=1", &sr)
	var resp StatsResponse
	getJSON(t, ts.URL+"/stats", &resp)
	if len(resp.Shards) != 2 {
		t.Fatalf("shards = %+v", resp.Shards)
	}
	var queries, held uint64
	for _, sh := range resp.Shards {
		queries += sh.Queries
		held += uint64(sh.Strings)
	}
	if queries != 2 || held != uint64(len(data)) {
		t.Errorf("shard stats = %+v", resp.Shards)
	}
}

func TestGracefulShutdown(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srvDone := make(chan error, 1)
	go func() {
		srvDone <- Serve(ctx, l, New(core.NewTrie(data, true), data), time.Second)
	}()
	// The server is accepting: a request must succeed.
	var resp SearchResponse
	getJSON(t, "http://"+l.Addr().String()+"/search?q=bern&k=1", &resp)
	if len(resp.Matches) != 1 {
		t.Fatalf("pre-shutdown search = %+v", resp.Matches)
	}
	cancel()
	select {
	case err := <-srvDone:
		if err != nil {
			t.Fatalf("shutdown err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	// The listener is closed now.
	if _, err := http.Get("http://" + l.Addr().String() + "/healthz"); err == nil {
		t.Error("server still accepting after shutdown")
	}
}
