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
// reports 504. What a request may look like and the status a bad one earns
// are the contract both HTTP tiers share (Limits, in front.go): query texts
// over 1024 bytes get 400, POST bodies over 1 MiB get 413 and bodies that
// are not valid UTF-8 get 400 (query bytes that are not UTF-8 travel
// base64-encoded in a query's q_b64, as the coordinator forwards them;
// /insert and /delete take UTF-8 strings only), and a failing query inside a
// batch reports its own per-result error instead of failing the whole batch
// — on the sharded and the serial path alike. serve/ListenAndServe add
// graceful shutdown.
//
// When the engine is the live mutable dictionary (see internal/lsm and the
// facade's NewLive), /insert and /delete accept JSON writes; each effective
// mutation advances the generation the result cache keys on before the
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
// Every endpoint sits behind the shared instrumentation (Front): request and
// error counters and a latency histogram under simsearch_http_*, plus an
// optional slow-query log, all exposed on /metrics.
package httpapi

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/metrics"
)

// Server wires an engine and its dataset into an http.Handler.
type Server struct {
	eng      core.Searcher
	data     []string
	front    *Front
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
	// Limits are the request limits; a zero field takes its default.
	Limits Limits
	// Timeout bounds the engine time of a single request (and of every
	// query in a batch). Zero disables the server-side deadline; the
	// request context still cancels on client disconnect.
	Timeout time.Duration
	// QueryTimeout, when positive, gives every query in a /search/batch
	// request its own deadline (core.WithQueryTimeout), on the sharded
	// executor and on the serial loop, under a result cache or not, so one
	// slow query reports its own error instead of starving the rest of the
	// batch.
	QueryTimeout time.Duration
	// Slow, when non-nil, logs one line per request slower than its
	// threshold. Set before serving traffic (read without synchronization).
	Slow *metrics.SlowLog
}

// New builds the handler. data must be the slice the engine was built over;
// it is used to echo matched strings.
func New(eng core.Searcher, data []string) *Server {
	s := &Server{
		eng: eng, data: data,
		front: NewFront("simsearch_http"),
		info:  dataset.Stats(data),
	}
	s.front.after = s.logSlow
	s.inflight = s.Registry().Gauge("simsearch_http_inflight_requests",
		"Requests currently being served.")
	if lm, ok := engineAs[liveMutator](eng); ok {
		s.live = lm
	}
	if sr, ok := engineAs[stringResolver](eng); ok {
		s.strAt = sr
	}
	get, post := http.MethodGet, http.MethodPost
	s.front.Handle(get, "/search", "search", s.oneQuery("k", defaultK,
		func(ctx context.Context, _ *http.Request, q core.Query) ([]core.Match, error) {
			return core.SearchContext(ctx, s.eng, q)
		}))
	s.front.Handle(post, "/search/batch", "batch", s.handleBatch)
	s.front.Handle(post, "/insert", "insert", s.handleMutation(true))
	s.front.Handle(post, "/delete", "delete", s.handleMutation(false))
	s.front.Handle(get, "/topk", "topk", s.oneQuery("maxk", 4, s.topK))
	s.front.Handle(get, "/hamming", "hamming", s.oneQuery("k", defaultK,
		func(ctx context.Context, _ *http.Request, q core.Query) ([]core.Match, error) {
			return core.Hamming(ctx, s.eng, s.stringAt, q.Text, q.K)
		}))
	s.front.Handle(get, "/stats", "stats", s.handleStats)
	s.front.Handle(get, "/healthz", "healthz", func(w http.ResponseWriter, r *http.Request) error {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
		return nil
	})
	// Register engine-owned metrics for every layer of the decorator chain
	// (the result cache exports simsearch_cache_*, the sharded executor
	// simsearch_shard_* and its shard engines' own series; a cached sharded
	// engine exports both).
	for _, e := range chain(eng) {
		if rm, ok := e.(interface{ RegisterMetrics(*metrics.Registry) }); ok {
			rm.RegisterMetrics(s.Registry())
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
func (s *Server) Registry() *metrics.Registry { return s.front.Registry() }

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/. Off by
// default: the profiling endpoints expose internals and cost CPU, so the
// binary gates them behind a flag.
func (s *Server) EnablePprof() {
	s.front.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.front.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.front.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.front.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.front.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Inc()
	defer s.inflight.Dec()
	s.front.ServeHTTP(w, r)
}

// logSlow hands a served request to the slow-query log, when there is one.
func (s *Server) logSlow(endpoint string, r *http.Request, took time.Duration) {
	if s.Slow != nil {
		v := r.URL.Query()
		k, _ := intParam(v.Get("k"), -1)
		s.Slow.Observe(endpoint, s.eng.Name(), -1, v.Get("q"), k, took)
	}
}

// queryCtx derives the context a search runs under: the request context,
// bounded by the configured Timeout.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.Timeout > 0 {
		return context.WithTimeout(r.Context(), s.Timeout)
	}
	return context.WithCancel(r.Context())
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

// oneQuery serves a GET endpoint that answers one query, read from q and
// the threshold parameter kParam, with a match list.
func (s *Server) oneQuery(kParam string, kDefault int,
	run func(ctx context.Context, r *http.Request, q core.Query) ([]core.Match, error)) Endpoint {
	return func(w http.ResponseWriter, r *http.Request) error {
		q, err := s.Limits.urlQuery(r, kParam, kDefault)
		if err != nil {
			return err
		}
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		start := time.Now()
		ms, err := run(ctx, r, q)
		if err != nil {
			return err
		}
		WriteJSON(w, SearchResponse{
			Query: q.Text, K: q.K,
			Matches: s.convert(ms),
			TookµS:  time.Since(start).Microseconds(),
		})
		return nil
	}
}

// topK answers /topk: the n closest matches (n defaults to 5 and is
// clamped to maxTopK) within the query's threshold, maxk.
func (s *Server) topK(ctx context.Context, r *http.Request, q core.Query) ([]core.Match, error) {
	n, ok := intParam(r.URL.Query().Get("n"), 5)
	if !ok || n < 1 {
		return nil, badRequest("n must be a positive integer")
	}
	return core.TopKContext(ctx, s.eng, q.Text, min(n, maxTopK), q.K)
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

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	qs, err := s.Limits.ReadBatch(w, r)
	if err != nil {
		return err
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	start := time.Now()
	// Context-batching engines (the sharded executor, the result cache) run
	// their own scheduler, the serial loop under them its own; each reads
	// QueryTimeout from the context. Either way a failing query reports its
	// own error, and only the batch context going dead aborts the request.
	results, err := core.SearchBatchContext(core.WithQueryTimeout(ctx, s.QueryTimeout), s.eng, qs)
	if err != nil {
		return err
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
	WriteJSON(w, resp)
	return nil
}

// handleStats serves the dataset summary, the engine's name and size, and
// the section every layer of the decorator chain describes of itself, under
// the section's name.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
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
	WriteJSON(w, resp)
	return nil
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
