// Package httpapi exposes a search engine over HTTP with a small JSON API,
// turning the library into a deployable fuzzy-search service (the kind of
// application the paper's introduction motivates: tolerant lookups over city
// names or genome reads).
//
// Endpoints:
//
//	GET  /search?q=TEXT&k=N        all matches within N edits
//	GET  /topk?q=TEXT&n=N&maxk=M   the N closest matches within M edits
//	GET  /hamming?q=TEXT&k=N       matches within N substitutions (same length)
//	POST /search/batch             JSON batch of queries, answered together
//	POST /insert                   add a string (live engines only)
//	POST /delete                   tombstone a string (live engines only)
//	GET  /stats                    engine, dataset, and each layer's own section
//	GET  /metrics                  Prometheus text-format scrape endpoint
//	GET  /healthz                  liveness probe
//
// Every query endpoint runs under the request context plus the configured
// Timeout: a client disconnect or an expired deadline abandons the query
// (promptly, for context-aware engines such as the sharded executor) and
// reports 504. Query texts over MaxQueryLen get 400, /search/batch bodies
// over MaxBody get 413 and bodies that are not valid UTF-8 get 400 (query
// bytes that are not UTF-8 travel base64-encoded in a query's q_b64, as the
// coordinator forwards them; /insert and /delete take UTF-8 strings only),
// and a failing query inside a batch
// reports its own per-result error instead of failing the whole batch — on
// the sharded and the serial path alike. serve/ListenAndServe add graceful
// shutdown.
//
// When the engine is the live mutable dictionary (see internal/lsm and the
// facade's NewLive), /insert and /delete accept JSON writes; each effective
// mutation bumps the result cache's version-in-key generation before the
// response is written, so a search issued after the acknowledgement can
// never be served a pre-mutation cached result. Matched strings are then
// echoed through the engine's own id resolver instead of the static data
// slice, because the dictionary outgrows its seed.
//
// The server knows the engine only through core's interfaces and the method
// sets it finds on the layers of the decorator chain (Unwrap): every layer
// with state reports it itself, Describe as a named /stats section and
// RegisterMetrics as /metrics series. So a result cache's hit/miss counters,
// a sharded executor's per-shard counters (each shard engine's own section
// and series inside, the latter under a shard label), a cascade's survivor
// funnel or a live store's gauges show up without this package naming any
// of them.
//
// Every endpoint is wrapped in per-endpoint instrumentation: request and
// error counters, a latency histogram, and an optional slow-query log, all
// exposed on /metrics.
package httpapi

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
	"unicode/utf8"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
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
	// expensive to rerun on every scrape. The count /stats serves is the
	// engine's Len, which for a live engine is the current dictionary size.
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
	// http.MaxBytesReader while the body is read — the MaxBatch
	// check alone would run only after an arbitrarily large body had been
	// read. Oversize bodies get 413. Defaults to 1 MiB.
	MaxBody int64
	// Timeout bounds the engine time of a single request (and of every
	// query in a batch). Zero disables the server-side deadline; the
	// request context still cancels on client disconnect.
	Timeout time.Duration
	// QueryTimeout, when positive, gives every query in a /search/batch
	// request its own deadline on the serial path — a plain engine, or the
	// misses a result cache forwards to one (core.WithQueryTimeout) — so one
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
	// simsearch_shard_* and its shard engines' own series; a cached sharded
	// engine exports both).
	for _, e := range chain(eng) {
		if rm, ok := e.(interface{ RegisterMetrics(*metrics.Registry) }); ok {
			rm.RegisterMetrics(s.reg)
		}
	}
	return s
}

// chain returns the engine decorator chain, outermost layer first, e.g. the
// result cache and then the sharded executor it wraps.
func chain(eng core.Searcher) []core.Searcher {
	var out []core.Searcher
	for e := eng; e != nil; {
		out = append(out, e)
		u, ok := e.(interface{ Unwrap() core.Searcher })
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	return out
}

// engineAs returns the outermost layer of the decorator chain that is a T.
func engineAs[T any](eng core.Searcher) (T, bool) {
	for _, e := range chain(eng) {
		if t, ok := e.(T); ok {
			return t, true
		}
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

// stringAt resolves a match ID to its string: through the live engine's
// resolver when there is one, else from the data the server was built with.
func (s *Server) stringAt(id int32) string {
	if s.strAt != nil {
		str, _ := s.strAt.StringAt(id)
		return str
	}
	return s.data[id]
}

func (s *Server) convert(ms []core.Match) []MatchJSON {
	out := make([]MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = MatchJSON{ID: m.ID, Dist: m.Dist, String: s.stringAt(m.ID)}
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

// BatchQuery is one query in a batch request. A JSON string holds only
// valid UTF-8, so Q suits text; QB64 carries any bytes exactly, in standard
// padded base64 (ExactQuery). Set one of the two.
type BatchQuery struct {
	Q    string `json:"q,omitempty"`
	QB64 string `json:"q_b64,omitempty"`
	K    *int   `json:"k,omitempty"` // nil → default 2
}

// The 400s a batch body earns for how it spells its query bytes, before any
// other check; an /insert or /delete body that is not valid UTF-8 earns the
// first.
var (
	errBodyNotUTF8    = errors.New("request body is not valid UTF-8: send query bytes that are not UTF-8 in a batch's q_b64")
	errBothQueryForms = errors.New("a query sets both q and q_b64")
	errBadQB64        = errors.New("q_b64 is not standard padded base64")
)

// ExactQuery returns the BatchQuery that carries text byte for byte: in Q
// when text is valid UTF-8, so a forwarded body stays about the size of the
// client's, and base64-encoded in QB64 only when it is not.
func ExactQuery(text string, k int) BatchQuery {
	if utf8.ValidString(text) {
		return BatchQuery{Q: text, K: &k}
	}
	return BatchQuery{QB64: base64.StdEncoding.EncodeToString([]byte(text)), K: &k}
}

// Text returns the query's bytes: QB64 decoded when it is set, else Q.
func (bq BatchQuery) Text() (string, error) {
	if bq.QB64 == "" {
		return bq.Q, nil
	}
	if bq.Q != "" {
		return "", errBothQueryForms
	}
	b, err := base64.StdEncoding.DecodeString(bq.QB64)
	if err != nil {
		return "", errBadQB64
	}
	return string(b), nil
}

// DecodeBatch reads a /search/batch body; see decodeUTF8.
func DecodeBatch(body io.Reader) (BatchRequest, error) {
	var req BatchRequest
	err := decodeUTF8(body, &req)
	return req, err
}

// decodeUTF8 reads a JSON body into v. The body must be valid UTF-8:
// decoding JSON turns each invalid byte inside a string into U+FFFD, which
// would answer a different query, or store a different string, than the one
// sent. A body over a http.MaxBytesReader's limit fails with its
// *http.MaxBytesError.
func decodeUTF8(body io.Reader, v any) error {
	raw, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	if !utf8.Valid(raw) {
		return errBodyNotUTF8
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return errors.New("invalid JSON: " + err.Error())
	}
	return nil
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
		// Cap the body while it is read: without this, the
		// MaxBatch check would run only after an arbitrarily large body
		// had already been read into memory.
		body = http.MaxBytesReader(w, r.Body, s.MaxBody)
	}
	req, err := DecodeBatch(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the configured maximum of "+
					strconv.FormatInt(tooBig.Limit, 10)+" bytes")
			return
		}
		s.fail(w, http.StatusBadRequest, err.Error())
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
		text, err := bq.Text()
		if err != nil {
			s.fail(w, http.StatusBadRequest, err.Error())
			return
		}
		if text == "" {
			s.fail(w, http.StatusBadRequest, "empty q in batch")
			return
		}
		if !s.queryLenOK(w, text) {
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
		qs[i] = core.Query{Text: text, K: k}
	}

	ctx, cancel := s.queryCtx(r)
	defer cancel()
	start := time.Now()
	// Context-batching engines (the sharded executor, the result cache) run
	// their own scheduler; the serial loop under them reads QueryTimeout
	// from the context. Either way a failing query reports its own error,
	// and only the batch context going dead aborts the request.
	results, err := core.SearchBatchContext(core.WithQueryTimeout(ctx, s.QueryTimeout), s.eng, qs)
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
	ms, err := core.Hamming(ctx, s.eng, s.stringAt, q, k)
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

// handleStats serves the dataset summary, the engine's name and size, and
// the section every layer of the decorator chain describes of itself, under
// the section's name.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	info := s.info
	resp := map[string]any{
		"engine": s.eng.Name(), "count": s.eng.Len(), "symbols": info.Symbols,
		"min_len": info.MinLen, "avg_len": info.AvgLen, "max_len": info.MaxLen,
	}
	for _, e := range chain(s.eng) {
		if d, ok := e.(interface{ Describe() (string, any) }); ok {
			name, section := d.Describe()
			resp[name] = section
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

// serve runs s on l until ctx is cancelled, then shuts down gracefully:
// listeners close, in-flight requests get up to grace to finish, and the
// remainder are forcibly closed. It returns nil after a clean shutdown.
func serve(ctx context.Context, l net.Listener, s *Server, grace time.Duration) error {
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
	<-errc // hs.Serve has returned http.ErrServerClosed
	return err
}

// ListenAndServe is serve over a fresh TCP listener on addr.
func ListenAndServe(ctx context.Context, addr string, s *Server, grace time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve(ctx, l, s, grace)
}
