package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"simsearch/internal/core"
)

// TestStatsComputedOnce pins the fix for /stats recomputing dataset.Stats on
// every scrape: the summary must be captured in New, so a scrape never takes
// a full O(total-bytes) pass over the corpus. The test proves where the pass
// happens by detaching the data slice after New — if handleStats still walked
// s.data, the reported summary would change (or the handler would see an
// empty corpus).
func TestStatsComputedOnce(t *testing.T) {
	d := []string{"berlin", "bern", "bonn"}
	s := New(core.NewTrie(d, true), d)
	s.data = nil // a scrape that re-scanned would now summarize nothing

	ts := httptest.NewServer(s)
	defer ts.Close()
	var resp statsResponse
	getJSON(t, ts.URL+"/stats", &resp)
	if resp.Count != 3 || resp.MinLen != 4 || resp.MaxLen != 6 {
		t.Errorf("stats not precomputed in New: %+v", resp)
	}
}

// TestInstrumentPanicAccounted pins the instrumentation fix: a panicking handler
// must still be visible to the request counter, the 5xx counter, and the
// latency histogram, and the client must get a 500 instead of an empty reply.
func TestInstrumentPanicAccounted(t *testing.T) {
	s := New(core.NewTrie(data, true), data)
	s.front.Handle(http.MethodGet, "/boom", "boom", func(w http.ResponseWriter, r *http.Request) error {
		panic("kaboom")
	})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler answered %d, want 500", rec.Code)
	}

	var sb strings.Builder
	if _, err := s.Registry().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`simsearch_http_requests_total{endpoint="boom"} 1`,
		`simsearch_http_errors_total{class="5xx",endpoint="boom"} 1`,
		`simsearch_http_request_seconds_count{endpoint="boom"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics after panic missing %q", want)
		}
	}

	// A handler that panics after committing a 200 cannot change the wire
	// status, but the accounting must still count it as a 5xx.
	s.front.Handle(http.MethodGet, "/lateboom", "lateboom", func(w http.ResponseWriter, r *http.Request) error {
		w.WriteHeader(http.StatusOK)
		panic("late kaboom")
	})
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/lateboom", nil))
	sb.Reset()
	if _, err := s.Registry().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `simsearch_http_errors_total{class="5xx",endpoint="lateboom"} 1`) {
		t.Error("post-commit panic not counted as 5xx")
	}
}

// TestStatusWriterPreservesFlusher pins the interface-preservation fix: the
// instrumentation wrapper must pass http.Flusher through to the underlying
// writer, so streaming endpoints (/metrics, pprof trace) can flush.
func TestStatusWriterPreservesFlusher(t *testing.T) {
	s := New(core.NewTrie(data, true), data)
	s.front.Handle(http.MethodGet, "/flush", "flush", func(w http.ResponseWriter, r *http.Request) error {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("instrumented writer dropped http.Flusher")
			return nil
		}
		w.Write([]byte("chunk"))
		f.Flush()
		return nil
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/flush", nil))
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying ResponseWriter")
	}
	if rec.Code != http.StatusOK || rec.Body.String() != "chunk" {
		t.Errorf("response = %d %q", rec.Code, rec.Body.String())
	}
}
