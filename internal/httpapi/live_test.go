package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"simsearch"
	"simsearch/internal/cache"
	"simsearch/internal/exec"
)

// liveServer builds a cache-fronted live engine over seed and wires it into
// a Server, mirroring the facade's OpenLive layering without importing the
// root package.
func liveServer(t *testing.T, seed []string) (*Server, *exec.LiveSharded) {
	t.Helper()
	ex, err := exec.NewLive(exec.LiveOptions{Shards: 2, Seed: seed})
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	t.Cleanup(func() { ex.Close() })
	c := cache.New(ex, cache.Options{Capacity: 64})
	return New(c, seed), ex
}

func postMutate(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeMutateResp(t *testing.T, w *httptest.ResponseRecorder) mutateResponse {
	t.Helper()
	var resp mutateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return resp
}

func TestLiveInsertDeleteEndToEnd(t *testing.T) {
	seed := []string{"berlin", "bergen", "boston"}
	s, _ := liveServer(t, seed)

	// Insert a new string: changed, next id, live count up.
	w := postMutate(s, "/insert", `{"s":"bremen"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("insert: code %d body %s", w.Code, w.Body.String())
	}
	resp := decodeMutateResp(t, w)
	if !resp.Changed || resp.ID != 3 || resp.Live != 4 {
		t.Fatalf("insert: %+v, want changed id=3 live=4", resp)
	}

	// Idempotent re-insert: same id, no change.
	resp = decodeMutateResp(t, postMutate(s, "/insert", `{"s":"bremen"}`))
	if resp.Changed || resp.ID != 3 || resp.Live != 4 {
		t.Fatalf("re-insert: %+v, want unchanged id=3 live=4", resp)
	}

	// The inserted string is searchable and echoed via the resolver.
	req := httptest.NewRequest(http.MethodGet, "/search?q=bremen&k=0", nil)
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	var sr SearchResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &sr); err != nil {
		t.Fatalf("decode search: %v", err)
	}
	if len(sr.Matches) != 1 || sr.Matches[0].ID != 3 || sr.Matches[0].String != "bremen" {
		t.Fatalf("search after insert: %+v", sr.Matches)
	}

	// Delete it: changed, then the no-op repeat.
	resp = decodeMutateResp(t, postMutate(s, "/delete", `{"s":"bremen"}`))
	if !resp.Changed || resp.Live != 3 {
		t.Fatalf("delete: %+v, want changed live=3", resp)
	}
	resp = decodeMutateResp(t, postMutate(s, "/delete", `{"s":"bremen"}`))
	if resp.Changed {
		t.Fatalf("repeat delete: %+v, want unchanged", resp)
	}
}

// TestLiveCacheInvalidationVisible: a cached result must not survive a
// mutation — the exact stale-read the version-in-key scheme exists to stop.
func TestLiveCacheInvalidationVisible(t *testing.T) {
	seed := []string{"alpha", "altar"}
	s, _ := liveServer(t, seed)

	search := func() []MatchJSON {
		req := httptest.NewRequest(http.MethodGet, "/search?q=alpha&k=2", nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		var sr SearchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return sr.Matches
	}

	// Populate the cache, twice so the entry is warm.
	before := search()
	search()
	if len(before) != 1 || before[0].String != "alpha" {
		t.Fatalf("seed search: %+v", before)
	}

	if w := postMutate(s, "/insert", `{"s":"aloha"}`); w.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", w.Code, w.Body.String())
	}
	after := search()
	if len(after) != 2 {
		t.Fatalf("search after insert served a stale result: %+v", after)
	}

	if w := postMutate(s, "/delete", `{"s":"alpha"}`); w.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", w.Code, w.Body.String())
	}
	final := search()
	if len(final) != 1 || final[0].String != "aloha" { // alpha gone, altar is dist 3
		t.Fatalf("search after delete served a stale result: %+v", final)
	}
}

func TestLiveMutationRejections(t *testing.T) {
	s, ex := liveServer(t, []string{"one", "two"})

	for _, path := range []string{"/insert", "/delete"} {
		// Wrong method.
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: code %d, want 405", path, w.Code)
		}

		// Wrong (and missing) Content-Type.
		req = httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"s":"x"}`))
		req.Header.Set("Content-Type", "text/plain")
		w = httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusUnsupportedMediaType {
			t.Errorf("POST %s text/plain: code %d, want 415", path, w.Code)
		}
		req = httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"s":"x"}`))
		w = httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusUnsupportedMediaType {
			t.Errorf("POST %s no Content-Type: code %d, want 415", path, w.Code)
		}

		// Garbage JSON and missing field.
		if w := postMutate(s, path, `{`); w.Code != http.StatusBadRequest {
			t.Errorf("POST %s bad JSON: code %d, want 400", path, w.Code)
		}
		if w := postMutate(s, path, `{}`); w.Code != http.StatusBadRequest {
			t.Errorf("POST %s empty s: code %d, want 400", path, w.Code)
		}

		// Over maxQueryLen.
		long := `{"s":"` + strings.Repeat("a", maxQueryLen+1) + `"}`
		if w := postMutate(s, path, long); w.Code != http.StatusBadRequest {
			t.Errorf("POST %s oversize s: code %d, want 400", path, w.Code)
		}

		// Not UTF-8: JSON decoding would turn the raw \xe9 into U+FFFD and
		// store "caf\uFFFD", a string nobody sent.
		w = postMutate(s, path, "{\"s\":\"caf\xe9\"}")
		var e errorResponse
		json.Unmarshal(w.Body.Bytes(), &e)
		if w.Code != http.StatusBadRequest || e.Error != errBodyNotUTF8.Error() {
			t.Errorf("POST %s not UTF-8: %d %q, want 400 %q", path, w.Code, e.Error, errBodyNotUTF8)
		}
		if live := ex.LiveStats().Live; live != 2 {
			t.Errorf("POST %s: %d live strings after rejected mutations, want 2", path, live)
		}
	}
}

func TestLiveMutationBodyLimit(t *testing.T) {
	s, _ := liveServer(t, []string{"one"})
	body := `{"s":"` + strings.Repeat("a", maxBody) + `"}`
	if w := postMutate(s, "/insert", body); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: code %d, want 413", w.Code)
	}
}

func TestLiveMutationDeadline(t *testing.T) {
	s, _ := liveServer(t, []string{"one"})
	s.Timeout = time.Nanosecond
	if w := postMutate(s, "/insert", `{"s":"late"}`); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: code %d, want 504", w.Code)
	}
}

// TestLiveNotImplementedOnFrozen: a frozen engine rejects writes with 501,
// and convert still echoes from the data slice.
func TestLiveNotImplementedOnFrozen(t *testing.T) {
	seed := []string{"one", "two"}
	s := New(exec.New(seed, exec.Options{Shards: 2}), seed)
	for _, path := range []string{"/insert", "/delete"} {
		if w := postMutate(s, path, `{"s":"x"}`); w.Code != http.StatusNotImplemented {
			t.Fatalf("POST %s on frozen: code %d, want 501", path, w.Code)
		}
	}
}

// TestLiveStatsSection: /stats carries the live gauges, the live count, the
// cache version that proves invalidation happened, and — the stores being
// searched by the sharded executor — one shards entry per store, as /metrics
// has one simsearch_shard_queries_total series per store.
func TestLiveStatsSection(t *testing.T) {
	seed := []string{"one", "two", "three"}
	s, ex := liveServer(t, seed)

	stats := func() statsResponse {
		req := httptest.NewRequest(http.MethodGet, "/stats", nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		var resp statsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode stats: %v", err)
		}
		return resp
	}

	st := stats()
	if st.Live == nil {
		t.Fatal("stats missing live section")
	}
	if st.Live.Live != 3 || st.Count != 3 || st.Live.Shards != 2 {
		t.Fatalf("live section: %+v count %d", st.Live, st.Count)
	}
	if st.Cache == nil || st.Cache.Version != ex.VersionString() {
		t.Fatalf("cache version: %+v, want %q", st.Cache, ex.VersionString())
	}
	v0 := st.Cache.Version

	postMutate(s, "/insert", `{"s":"four"}`)
	postMutate(s, "/delete", `{"s":"one"}`)
	st = stats()
	if st.Live.Inserts != 1 || st.Live.Deletes != 1 || st.Live.Live != 3 {
		t.Fatalf("live counters after writes: %+v", st.Live)
	}
	if st.Count != 3 {
		t.Fatalf("count after writes: %d, want 3", st.Count)
	}
	if st.Cache.Version == v0 || st.Cache.Version != ex.VersionString() {
		t.Fatalf("cache version not bumped: %q -> %q (engine %q)",
			v0, st.Cache.Version, ex.VersionString())
	}
	if st.Live.Tombstones != 1 || st.Live.Known != 4 {
		t.Fatalf("tombstone accounting: %+v", st.Live)
	}

	const searches = 3 // distinct queries: each misses the cache once
	for _, q := range []string{"one", "two", "four"} {
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/search?q="+q+"&k=1", nil))
	}
	st = stats()
	if len(st.Shards) != st.Live.Shards {
		t.Fatalf("shards section: %d entries, want one per store (%d)", len(st.Shards), st.Live.Shards)
	}
	var queries uint64
	strs := 0
	for _, sh := range st.Shards {
		queries += sh.Queries
		strs += sh.Strings
	}
	if want := uint64(st.Live.Shards * searches); queries != want {
		t.Errorf("shards answered %d store searches, want %d (stores × searches)", queries, want)
	}
	if strs != st.Live.Live {
		t.Errorf("shards hold %d strings, live section %d", strs, st.Live.Live)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for i := range st.Shards {
		series := `simsearch_shard_queries_total{shard="` + strconv.Itoa(i) + `"} ` + strconv.Itoa(searches)
		if !strings.Contains(w.Body.String(), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestFacadeLiveStats: behind the facade's cache-wrapped Live, /stats
// reaches the live and cache sections through Live's Unwrap, count is the
// engine's Len after writes, and the cache carries the live generation.
func TestFacadeLiveStats(t *testing.T) {
	lv := simsearch.NewLive([]string{"one", "two", "three"}, 2, simsearch.Options{CacheSize: 64})
	defer lv.Close()
	s := New(lv, []string{"one", "two", "three"})
	postMutate(s, "/insert", `{"s":"four"}`)
	postMutate(s, "/delete", `{"s":"one"}`)

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Count != lv.Len() || st.Count != 3 {
		t.Errorf("count = %d, want Len() = %d", st.Count, lv.Len())
	}
	if st.Live == nil || st.Cache == nil {
		t.Fatalf("live section %+v, cache section %+v", st.Live, st.Cache)
	}
	if gen := "live-g" + strconv.FormatUint(st.Live.Generation, 10); st.Live.Generation != 2 || st.Cache.Version != gen {
		t.Errorf("cache version %q, live generation %d", st.Cache.Version, st.Live.Generation)
	}
}

// TestLiveMetricsExported: the live executor's RegisterMetrics ran during
// New's decorator walk, so /metrics exposes the write counters.
func TestLiveMetricsExported(t *testing.T) {
	s, _ := liveServer(t, []string{"one"})
	postMutate(s, "/insert", `{"s":"two"}`)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	body := w.Body.String()
	for _, want := range []string{
		"simsearch_live_inserts_total 1",
		"simsearch_live_deletes_total 0",
		"simsearch_live_strings 2",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
