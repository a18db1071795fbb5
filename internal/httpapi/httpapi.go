// Package httpapi exposes a search engine over HTTP with a small JSON API,
// turning the library into a deployable fuzzy-search service (the kind of
// application the paper's introduction motivates: tolerant lookups over city
// names or genome reads).
//
// Endpoints:
//
//	GET  /search?q=TEXT&k=N        all matches within N edits
//	GET  /topk?q=TEXT&n=N&maxk=M   the N closest matches within M edits
//	GET  /hamming?q=TEXT&k=N       Hamming matches (trie engines only)
//	POST /search/batch             JSON batch of queries, answered together
//	POST /insert                   add a string (live engines only)
//	POST /delete                   tombstone a string (live engines only)
//	GET  /stats                    engine, dataset, and per-shard counters
//	GET  /metrics                  Prometheus text-format scrape endpoint
//	GET  /healthz                  liveness probe
//
// Every query endpoint runs under the request context plus the configured
// Timeout: a client disconnect or an expired deadline abandons the query
// (promptly, for context-aware engines such as the sharded executor) and
// reports 504. Query texts over MaxQueryLen get 400, /search/batch bodies
// over MaxBody get 413, and a failing query inside a batch reports its own
// per-result error instead of failing the whole batch — on the sharded and
// the serial path alike. Serve/ListenAndServe add graceful shutdown.
//
// When the engine is the live mutable dictionary (see internal/lsm and the
// facade's NewLive), /insert and /delete accept JSON writes; each effective
// mutation bumps the result cache's version-in-key generation before the
// response is written, so a search issued after the acknowledgement can
// never be served a pre-mutation cached result. Matched strings are then
// echoed through the engine's own id resolver instead of the static data
// slice, because the dictionary outgrows its seed.
//
// When the engine is wrapped in a result cache (internal/cache), hits are
// served before any executor work, and /stats and /metrics expose the
// cache's hit/miss/eviction/coalesced counters alongside the per-shard
// counters of a cached sharded engine.
//
// Every endpoint is wrapped in per-endpoint instrumentation: request and
// error counters, a latency histogram, and an optional slow-query log, all
// exposed on /metrics (plus per-shard counters when the engine is the
// sharded executor).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"simsearch/internal/cache"
	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/exec"
	"simsearch/internal/metrics"
)

// Server wires an engine and its dataset into an http.Handler.
type Server struct {
	eng      core.Searcher
	data     []string
	mux      *http.ServeMux
	reg      *metrics.Registry
	inflight *metrics.Gauge
	// info is the dataset summary served by /stats, computed once at wiring
	// time: dataset.Stats is a full pass over every corpus byte, far too
	// expensive to rerun on every scrape. Live engines override the count
	// from their own LiveStats, so the frozen summary stays correct.
	info dataset.Info
	// live is the write surface, discovered from the engine chain at wiring
	// time; nil for frozen engines (writes then get 501).
	live liveMutator
	// strAt resolves match ids for mutable engines, where the static data
	// slice covers only the seed.
	strAt stringResolver
	// MaxK caps the accepted threshold so one request cannot trigger an
	// effectively unbounded scan. Defaults to 16 (the paper's largest k).
	MaxK int
	// MaxTopK caps /topk's n: requests asking for more neighbours are
	// clamped to this many, so one request cannot force an arbitrarily
	// large result allocation. Defaults to 100.
	MaxTopK int
	// MaxBatch caps the number of queries in one /search/batch request.
	// Defaults to 1024.
	MaxBatch int
	// MaxQueryLen caps the byte length of a query text on every query
	// endpoint: the DP cost of a single comparison grows with the query
	// length, so an oversize q is rejected with 400 before any engine work.
	// Defaults to 1024.
	MaxQueryLen int
	// MaxBody caps the /search/batch request body in bytes, enforced by
	// http.MaxBytesReader while the JSON decoder streams — the MaxBatch
	// check alone would run only after an arbitrarily large body had been
	// read. Oversize bodies get 413. Defaults to 1 MiB.
	MaxBody int64
	// Timeout bounds the engine time of a single request (and of every
	// query in a batch). Zero disables the server-side deadline; the
	// request context still cancels on client disconnect.
	Timeout time.Duration
	// QueryTimeout, when positive, gives every query in a /search/batch
	// request its own deadline on the serial (non-sharded) path, so one
	// slow query reports its own error instead of starving the rest of the
	// batch. The sharded executor applies its own exec.Options.QueryTimeout
	// instead.
	QueryTimeout time.Duration
	// Slow, when non-nil, logs one line per request slower than its
	// threshold. Set before serving traffic (read without synchronization).
	Slow *metrics.SlowLog
}

// New builds the handler. data must be the slice the engine was built over;
// it is used to echo matched strings.
func New(eng core.Searcher, data []string) *Server {
	s := &Server{
		eng: eng, data: data, mux: http.NewServeMux(),
		MaxK: 16, MaxTopK: 100, MaxBatch: 1024,
		MaxQueryLen: 1024, MaxBody: 1 << 20,
		reg:  metrics.NewRegistry(),
		info: dataset.Stats(data),
	}
	s.inflight = s.reg.Gauge("simsearch_http_inflight_requests",
		"Requests currently being served.")
	if lm, ok := engineAs[liveMutator](eng); ok {
		s.live = lm
	}
	if sr, ok := engineAs[stringResolver](eng); ok {
		s.strAt = sr
	}
	s.mux.Handle("/search", s.instrument("search", s.handleSearch))
	s.mux.Handle("/search/batch", s.instrument("batch", s.handleBatch))
	s.mux.Handle("/insert", s.instrument("insert", s.handleInsert))
	s.mux.Handle("/delete", s.instrument("delete", s.handleDelete))
	s.mux.Handle("/topk", s.instrument("topk", s.handleTopK))
	s.mux.Handle("/hamming", s.instrument("hamming", s.handleHamming))
	s.mux.Handle("/stats", s.instrument("stats", s.handleStats))
	s.mux.Handle("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.Handle("/healthz", s.instrument("healthz", s.handleHealth))
	// Register engine-owned metrics for every layer of the decorator chain
	// (the result cache exports simsearch_cache_*, the sharded executor
	// simsearch_shard_*; a cached sharded engine exports both).
	for e := eng; e != nil; {
		if rm, ok := e.(interface{ RegisterMetrics(*metrics.Registry) }); ok {
			rm.RegisterMetrics(s.reg)
		}
		u, ok := e.(interface{ Unwrap() core.Searcher })
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	// Shard engines sit a layer deeper than the decorator walk reaches;
	// register the shard cascades' summed funnel so the sharded path exports
	// simsearch_cascade_* like the direct path does.
	if _, direct := engineAs[*core.Cascade](eng); !direct {
		registerCascades(s.reg, cascades(eng))
	}
	return s
}

// cascades returns every filter cascade in the serving chain: a directly
// served (possibly cached) one, or those the sharded executor's shards hold.
func cascades(eng core.Searcher) []*core.Cascade {
	if c, ok := engineAs[*core.Cascade](eng); ok {
		return []*core.Cascade{c}
	}
	ex, ok := engineAs[*exec.Sharded](eng)
	if !ok {
		return nil
	}
	var out []*core.Cascade
	for _, se := range ex.ShardEngines() {
		if c, ok := se.(*core.Cascade); ok {
			out = append(out, c)
		}
	}
	return out
}

// cascadeTotals sums the layouts and the funnels of cs.
func cascadeTotals(cs []*core.Cascade) (sum CascadeStatsJSON) {
	for _, c := range cs {
		st := c.CascadeEngine().Stats()
		sum.ArenaBytes += st.ArenaBytes
		sum.Buckets += st.Buckets
		sum.Queries += st.Queries
		sum.Candidates += st.Candidates
		sum.Swept += st.Swept
		sum.Passed += st.Passed
		sum.Survivors += st.Survivors
		sum.Matches += st.Matches
	}
	return sum
}

// registerCascades exports the summed counters of cs under the series names
// and stage labels one cascade registers for itself (cascade.RegisterMetrics).
func registerCascades(reg *metrics.Registry, cs []*core.Cascade) {
	if len(cs) == 0 {
		return
	}
	counter := func(name, help string, field func(CascadeStatsJSON) uint64, labels ...metrics.Label) {
		reg.CounterFunc(name, help, func() float64 { return float64(field(cascadeTotals(cs))) }, labels...)
	}
	counter("simsearch_cascade_queries_total", "queries answered by the shard cascades, summed over shards",
		func(st CascadeStatsJSON) uint64 { return st.Queries })
	for _, stage := range []struct {
		name  string
		field func(CascadeStatsJSON) uint64
	}{
		{"length", func(st CascadeStatsJSON) uint64 { return st.Candidates }},
		{"block", func(st CascadeStatsJSON) uint64 { return st.Swept }},
		{"frequency", func(st CascadeStatsJSON) uint64 { return st.Passed }},
		{"qgram", func(st CascadeStatsJSON) uint64 { return st.Survivors }},
		{"verify", func(st CascadeStatsJSON) uint64 { return st.Matches }},
	} {
		counter("simsearch_cascade_stage_survivors_total",
			"candidates surviving each cascade stage, cumulative across queries and shards",
			stage.field, metrics.L("stage", stage.name))
	}
}

// engineAs walks the engine decorator chain (via Unwrap) looking for a layer
// of type T, e.g. the sharded executor underneath the result cache.
func engineAs[T any](eng core.Searcher) (T, bool) {
	for e := eng; e != nil; {
		if t, ok := e.(T); ok {
			return t, true
		}
		u, ok := e.(interface{ Unwrap() core.Searcher })
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	var zero T
	return zero, false
}

// Registry returns the server's metric registry, so callers can register
// additional collectors (and tests can scrape directly).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/. Off by
// default: the profiling endpoints expose internals and cost CPU, so the
// binary gates them behind a flag.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// statusWriter records the response code for the instrumentation wrapper.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true // an implicit 200 counts as written
	return w.ResponseWriter.Write(b)
}

// Flush passes flushes through to the wrapped writer. Embedding only carries
// the http.ResponseWriter method set, so without this the wrapper silently
// dropped http.Flusher for every handler — streaming responses such as
// /metrics scrapes and the gated pprof trace endpoint buffered instead.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-endpoint observability: request,
// 4xx and 5xx counters, a latency histogram, the in-flight gauge, and the
// slow-query log. The metric instances are resolved once at wiring time, so
// the per-request cost is a few atomic operations.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	lbl := metrics.L("endpoint", endpoint)
	reqs := s.reg.Counter("simsearch_http_requests_total",
		"HTTP requests served, by endpoint.", lbl)
	errs4 := s.reg.Counter("simsearch_http_errors_total",
		"HTTP error responses, by endpoint and class.", lbl, metrics.L("class", "4xx"))
	errs5 := s.reg.Counter("simsearch_http_errors_total",
		"HTTP error responses, by endpoint and class.", lbl, metrics.L("class", "5xx"))
	lat := s.reg.Histogram("simsearch_http_request_seconds",
		"Request latency, by endpoint.", metrics.DefLatencyBuckets, lbl)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Inc()
		defer s.inflight.Dec()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		// Accounting runs in a defer so a panicking handler is still counted:
		// before this, a panic skipped every counter and the histogram, making
		// the failure mode invisible on /metrics. The panic is recovered into
		// a 500 (when no header is out yet) and counted as 5xx.
		defer func() {
			if p := recover(); p != nil {
				sw.code = http.StatusInternalServerError
				if !sw.wrote {
					s.fail(sw, http.StatusInternalServerError, "internal error")
				}
			}
			took := time.Since(start)
			reqs.Inc()
			switch {
			case sw.code >= 500:
				errs5.Inc()
			case sw.code >= 400:
				errs4.Inc()
			}
			lat.Observe(took)
			if s.Slow != nil {
				k, _ := s.intParam(r, "k", -1)
				s.Slow.Observe(endpoint, s.eng.Name(), -1, r.URL.Query().Get("q"), k, took)
			}
		}()
		h(sw, r)
	})
}

// handleMetrics serves the Prometheus text-format scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.reg.Handler().ServeHTTP(w, r)
}

// queryCtx derives the context a search runs under: the request context,
// bounded by the configured Timeout.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.Timeout > 0 {
		return context.WithTimeout(r.Context(), s.Timeout)
	}
	return context.WithCancel(r.Context())
}

// failCtx maps a context error to the right status code.
func (s *Server) failCtx(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.fail(w, http.StatusGatewayTimeout, "query deadline exceeded")
		return
	}
	s.fail(w, http.StatusServiceUnavailable, err.Error())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// MatchJSON is one result row.
type MatchJSON struct {
	ID     int32  `json:"id"`
	String string `json:"string"`
	Dist   int    `json:"dist"`
}

// SearchResponse is the /search and /topk payload.
type SearchResponse struct {
	Query   string      `json:"query"`
	K       int         `json:"k"`
	Matches []MatchJSON `json:"matches"`
	TookµS  int64       `json:"took_us"`
}

// ErrorResponse is the error payload.
type ErrorResponse struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}

func (s *Server) intParam(r *http.Request, name string, def int) (int, bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

// queryLenOK rejects query texts over MaxQueryLen with 400: per-comparison
// DP cost grows with len(q), so the bound must hold before any engine work.
func (s *Server) queryLenOK(w http.ResponseWriter, q string) bool {
	if s.MaxQueryLen > 0 && len(q) > s.MaxQueryLen {
		s.fail(w, http.StatusBadRequest,
			"query text exceeds the configured maximum of "+strconv.Itoa(s.MaxQueryLen)+" bytes")
		return false
	}
	return true
}

func (s *Server) convert(ms []core.Match) []MatchJSON {
	out := make([]MatchJSON, len(ms))
	for i, m := range ms {
		mj := MatchJSON{ID: m.ID, Dist: m.Dist}
		if s.strAt != nil {
			mj.String, _ = s.strAt.StringAt(m.ID)
		} else {
			mj.String = s.data[m.ID]
		}
		out[i] = mj
	}
	return out
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		s.fail(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	if !s.queryLenOK(w, q) {
		return
	}
	k, ok := s.intParam(r, "k", 2)
	if !ok || k < 0 {
		s.fail(w, http.StatusBadRequest, "k must be a non-negative integer")
		return
	}
	if k > s.MaxK {
		s.fail(w, http.StatusBadRequest, "k exceeds the configured maximum")
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	start := time.Now()
	ms, err := core.SearchContext(ctx, s.eng, core.Query{Text: q, K: k})
	if err != nil {
		s.failCtx(w, err)
		return
	}
	resp := SearchResponse{
		Query: q, K: k,
		Matches: s.convert(ms),
		TookµS:  time.Since(start).Microseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// BatchRequest is the /search/batch payload: a list of queries answered as
// one batch (shard-parallel when the engine is the sharded executor).
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchQuery is one query in a batch request.
type BatchQuery struct {
	Q string `json:"q"`
	K *int   `json:"k,omitempty"` // nil → default 2
}

// BatchResponse is the /search/batch payload.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	TookµS  int64         `json:"took_us"`
}

// BatchResult is one query's outcome: its matches, or the error ("deadline
// exceeded", …) that ended it.
type BatchResult struct {
	Query   string      `json:"query"`
	K       int         `json:"k"`
	Matches []MatchJSON `json:"matches,omitempty"`
	Error   string      `json:"error,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body := r.Body
	if s.MaxBody > 0 {
		// Cap the body while the decoder streams: without this, the
		// MaxBatch check would run only after an arbitrarily large body
		// had already been read into memory.
		body = http.MaxBytesReader(w, r.Body, s.MaxBody)
	}
	var req BatchRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the configured maximum of "+
					strconv.FormatInt(tooBig.Limit, 10)+" bytes")
			return
		}
		s.fail(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > s.MaxBatch {
		s.fail(w, http.StatusRequestEntityTooLarge, "batch exceeds the configured maximum")
		return
	}
	qs := make([]core.Query, len(req.Queries))
	for i, bq := range req.Queries {
		if bq.Q == "" {
			s.fail(w, http.StatusBadRequest, "empty q in batch")
			return
		}
		if !s.queryLenOK(w, bq.Q) {
			return
		}
		k := 2
		if bq.K != nil {
			k = *bq.K
		}
		if k < 0 || k > s.MaxK {
			s.fail(w, http.StatusBadRequest, "k out of range in batch")
			return
		}
		qs[i] = core.Query{Text: bq.Q, K: k}
	}

	ctx, cancel := s.queryCtx(r)
	defer cancel()
	start := time.Now()
	results, err := s.searchBatch(ctx, qs)
	if err != nil {
		s.failCtx(w, err)
		return
	}
	resp := BatchResponse{Results: make([]BatchResult, len(qs)), TookµS: time.Since(start).Microseconds()}
	for i, res := range results {
		br := BatchResult{Query: qs[i].Text, K: qs[i].K}
		if res.Err != nil {
			br.Error = res.Err.Error()
		} else {
			br.Matches = s.convert(res.Matches)
		}
		resp.Results[i] = br
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// searchBatch answers qs under ctx. Context-batching engines (the sharded
// executor, the result cache) run their own scheduler with per-query
// outcomes; any other engine answers serially. Both paths report per-query
// errors in the results — a failing query never fails the whole batch. Only
// the batch context itself going dead (deadline or disconnect) aborts the
// request, exactly as the executor's pool does.
func (s *Server) searchBatch(ctx context.Context, qs []core.Query) ([]core.QueryResult, error) {
	if cb, ok := s.eng.(core.ContextBatcher); ok {
		return cb.SearchBatchContext(ctx, qs)
	}
	out := make([]core.QueryResult, len(qs))
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		qctx := ctx
		var cancel context.CancelFunc
		if s.QueryTimeout > 0 {
			qctx, cancel = context.WithTimeout(ctx, s.QueryTimeout)
		}
		ms, err := core.SearchContext(qctx, s.eng, q)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			out[i] = core.QueryResult{Err: err}
			continue
		}
		out[i] = core.QueryResult{Matches: ms}
	}
	return out, nil
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		s.fail(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	if !s.queryLenOK(w, q) {
		return
	}
	n, ok := s.intParam(r, "n", 5)
	if !ok || n < 1 {
		s.fail(w, http.StatusBadRequest, "n must be a positive integer")
		return
	}
	if n > s.MaxTopK {
		// Clamp rather than reject: the cap exists to bound the result
		// allocation, and the closest MaxTopK neighbours are still the
		// correct prefix of the requested answer.
		n = s.MaxTopK
	}
	maxK, ok := s.intParam(r, "maxk", 4)
	if !ok || maxK < 0 || maxK > s.MaxK {
		s.fail(w, http.StatusBadRequest, "maxk out of range")
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	start := time.Now()
	ms, err := core.TopKContext(ctx, s.eng, q, n, maxK)
	if err != nil {
		s.failCtx(w, err)
		return
	}
	resp := SearchResponse{
		Query: q, K: maxK,
		Matches: s.convert(ms),
		TookµS:  time.Since(start).Microseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHamming(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Walk the decorator chain: a cache-wrapped trie still serves Hamming
	// (straight from the trie — the cache keys edit-distance results only).
	t, ok := engineAs[*core.Trie](s.eng)
	if !ok {
		s.fail(w, http.StatusNotImplemented, "hamming search requires a trie engine")
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		s.fail(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	if !s.queryLenOK(w, q) {
		return
	}
	k, okParam := s.intParam(r, "k", 2)
	if !okParam || k < 0 || k > s.MaxK {
		s.fail(w, http.StatusBadRequest, "k out of range")
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	start := time.Now()
	ms, err := t.SearchHammingContext(ctx, q, k)
	if err != nil {
		s.failCtx(w, err)
		return
	}
	resp := SearchResponse{
		Query: q, K: k,
		Matches: s.convert(ms),
		TookµS:  time.Since(start).Microseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// ShardStatsJSON is one shard's serving counters in the /stats payload.
// P50µS/P99µS are bucket-interpolated from the shard's latency histogram.
type ShardStatsJSON struct {
	Strings    int     `json:"strings"`
	Queries    uint64  `json:"queries"`
	Matches    uint64  `json:"matches"`
	BusyµS     int64   `json:"busy_us"`
	MeanµS     int64   `json:"mean_us"`
	P50µS      int64   `json:"p50_us"`
	P99µS      int64   `json:"p99_us"`
	Throughput float64 `json:"throughput_qps"`
}

// CacheStatsJSON is the result-cache section of the /stats payload.
type CacheStatsJSON struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
	// Version is the engine generation baked into every cache key; for live
	// engines it advances on each effective mutation, making invalidation
	// observable here.
	Version string `json:"version,omitempty"`
}

// ScanStatsJSON is the sequential-scan section of the /stats payload: the
// ladder rung, the pool size, and — on the BitParallel rung — the packed
// arena layout (how many strings and bytes the contiguous buffer holds, and
// how many length buckets the O(1) length filter selects over).
type ScanStatsJSON struct {
	Strategy     string `json:"strategy"`
	Workers      int    `json:"workers,omitempty"`
	ArenaStrings int    `json:"arena_strings,omitempty"`
	ArenaBytes   int    `json:"arena_bytes,omitempty"`
	ArenaBuckets int    `json:"arena_buckets,omitempty"`
}

// CascadeStatsJSON is the filter-cascade section of the /stats payload: the
// arena layout plus the cumulative per-stage survivor funnel, which makes
// the cascade's pruning observable (a stage whose survivors equal its input
// has stopped pruning). The signature kind is in the engine's name. Under the
// sharded executor the section sums the shards' cascades.
type CascadeStatsJSON struct {
	ArenaBytes int    `json:"arena_bytes"`
	Buckets    int    `json:"buckets"`
	Queries    uint64 `json:"queries"`
	// The survivor funnel, in stage order; each stage's input is the
	// previous stage's survivors. Candidates counts the slots of the length
	// windows; Swept, those in blocks whose summary words let the sweep in;
	// Passed, the first signature word's survivors; Survivors, those of the
	// second word too where the corpus has one, equals the verify-kernel
	// invocations.
	Candidates uint64 `json:"candidates"`
	Swept      uint64 `json:"swept"`
	Passed     uint64 `json:"passed"`
	Survivors  uint64 `json:"survivors"`
	Matches    uint64 `json:"matches"`
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	Engine  string            `json:"engine"`
	Count   int               `json:"count"`
	Symbols int               `json:"symbols"`
	MinLen  int               `json:"min_len"`
	AvgLen  float64           `json:"avg_len"`
	MaxLen  int               `json:"max_len"`
	Scan    *ScanStatsJSON    `json:"scan,omitempty"`
	Cascade *CascadeStatsJSON `json:"cascade,omitempty"`
	Cache   *CacheStatsJSON   `json:"cache,omitempty"`
	Live    *LiveStatsJSON    `json:"live,omitempty"`
	Shards  []ShardStatsJSON  `json:"shards,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	info := s.info
	resp := StatsResponse{
		Engine: s.eng.Name(), Count: info.Count, Symbols: info.Symbols,
		MinLen: info.MinLen, AvgLen: info.AvgLen, MaxLen: info.MaxLen,
	}
	if seq, ok := engineAs[*core.Sequential](s.eng); ok {
		eng := seq.ScanEngine()
		sj := &ScanStatsJSON{Strategy: eng.Strategy().String(), Workers: eng.Workers()}
		if as, ok := eng.ArenaStats(); ok {
			sj.ArenaStrings = as.Strings
			sj.ArenaBytes = as.Bytes
			sj.ArenaBuckets = as.Buckets
		}
		resp.Scan = sj
	}
	if cs := cascades(s.eng); len(cs) > 0 {
		st := cascadeTotals(cs)
		resp.Cascade = &st
	}
	if c, ok := engineAs[*cache.Cache](s.eng); ok {
		cs := c.Stats()
		resp.Cache = &CacheStatsJSON{
			Hits: cs.Hits, Misses: cs.Misses, Coalesced: cs.Coalesced,
			Evictions: cs.Evictions, Entries: cs.Entries, Capacity: cs.Capacity,
			HitRate: cs.HitRate(), Version: c.Version(),
		}
	}
	if ls, ok := engineAs[liveStatser](s.eng); ok {
		st := ls.LiveStats()
		// The static dataset stats describe only the seed; the live count is
		// the current dictionary size.
		resp.Count = st.Live
		resp.Live = &LiveStatsJSON{
			Shards: st.Shards, LiveStrings: st.Live, KnownStrings: st.Known,
			Tombstones: st.Tombstones, DeltaEntries: st.DeltaEntries,
			Segments: st.Segments, SegmentStrings: st.SegmentStrings,
			ArenaBytes: st.ArenaBytes, Flushes: st.Flushes,
			Compactions: st.Compactions, Inserts: st.Inserts,
			Deletes: st.Deletes, Generation: st.Generation,
			Persistent: st.Persistent,
		}
	}
	if ex, ok := engineAs[*exec.Sharded](s.eng); ok {
		sizes := ex.ShardSizes()
		for i, snap := range ex.CounterSnapshots() {
			resp.Shards = append(resp.Shards, ShardStatsJSON{
				Strings:    sizes[i],
				Queries:    snap.Queries,
				Matches:    snap.Matches,
				BusyµS:     snap.Busy.Microseconds(),
				MeanµS:     snap.MeanLatency().Microseconds(),
				P50µS:      snap.Latency.Quantile(0.50).Microseconds(),
				P99µS:      snap.Latency.Quantile(0.99).Microseconds(),
				Throughput: snap.Throughput(),
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// Serve runs s on l until ctx is cancelled, then shuts down gracefully:
// listeners close, in-flight requests get up to grace to finish, and the
// remainder are forcibly closed. It returns nil after a clean shutdown.
func Serve(ctx context.Context, l net.Listener, s *Server, grace time.Duration) error {
	hs := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if grace > 0 {
		sctx, cancel = context.WithTimeout(sctx, grace)
	}
	defer cancel()
	err := hs.Shutdown(sctx)
	<-errc // Serve has returned http.ErrServerClosed
	return err
}

// ListenAndServe is Serve over a fresh TCP listener on addr.
func ListenAndServe(ctx context.Context, addr string, s *Server, grace time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return Serve(ctx, l, s, grace)
}
