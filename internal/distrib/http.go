package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"simsearch/internal/httpapi"
	"simsearch/internal/metrics"
)

// routes mounts the coordinator endpoints. The JSON wire types are
// httpapi's own, so a coordinator is a drop-in replacement for a single
// shard server from a client's point of view.
func (c *Coordinator) routes() {
	c.mux.Handle("/search", c.instrument("search", c.handleSearch))
	c.mux.Handle("/search/batch", c.instrument("batch", c.handleBatch))
	c.mux.Handle("/stats", c.instrument("stats", c.handleStats))
	c.mux.Handle("/metrics", c.instrument("metrics", c.handleMetrics))
	c.mux.Handle("/healthz", c.instrument("healthz", c.handleHealth))
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// registerMetrics exposes the coordinator's own serving state under
// simsearch_coord_* names.
func (c *Coordinator) registerMetrics() {
	c.reg.GaugeFunc("simsearch_coord_inflight_requests",
		"Query requests currently admitted.",
		func() float64 { return float64(c.inflight.Load()) })
	c.reg.CounterFunc("simsearch_coord_shed_total",
		"Requests shed by admission control (503 + Retry-After).",
		func() float64 { return float64(c.shed.Value()) })
	for i := range c.shards {
		sh := c.shards[i]
		lbl := metrics.L("shard", strconv.Itoa(i))
		c.reg.CounterFunc("simsearch_coord_shard_rpcs_total",
			"Shard RPC attempts launched (hedges and failovers included), by shard.",
			func() float64 { return float64(sh.rpcs.Value()) }, lbl)
		c.reg.CounterFunc("simsearch_coord_shard_errors_total",
			"Failed shard RPC attempts, by shard.",
			func() float64 { return float64(sh.errs.Value()) }, lbl)
		c.reg.CounterFunc("simsearch_coord_hedges_total",
			"Hedge attempts launched, by shard.",
			func() float64 { return float64(sh.hedges.Value()) }, lbl)
		c.reg.CounterFunc("simsearch_coord_hedge_wins_total",
			"Hedge attempts that answered first, by shard.",
			func() float64 { return float64(sh.hedgeWins.Value()) }, lbl)
		c.reg.RegisterHistogram("simsearch_coord_shard_rpc_seconds",
			"Latency of successful shard RPCs (feeds the hedge delay).", sh.lat, lbl)
		for j, rep := range sh.replicas {
			rep := rep
			c.reg.GaugeFunc("simsearch_coord_replica_up",
				"1 when the replica's circuit breaker is closed, by shard and replica.",
				func() float64 {
					if rep.up(time.Now().UnixNano()) {
						return 1
					}
					return 0
				}, lbl, metrics.L("replica", strconv.Itoa(j)))
		}
	}
}

// statusWriter mirrors httpapi's: it records the status for accounting and
// preserves http.Flusher.
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
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-endpoint counters and the latency
// histogram; accounting runs in a defer so panicking handlers are counted
// (and recovered to a 500), matching the shard servers' wrapper.
func (c *Coordinator) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	lbl := metrics.L("endpoint", endpoint)
	reqs := c.reg.Counter("simsearch_coord_requests_total",
		"Coordinator requests served, by endpoint.", lbl)
	errs4 := c.reg.Counter("simsearch_coord_errors_total",
		"Coordinator error responses, by endpoint and class.", lbl, metrics.L("class", "4xx"))
	errs5 := c.reg.Counter("simsearch_coord_errors_total",
		"Coordinator error responses, by endpoint and class.", lbl, metrics.L("class", "5xx"))
	lat := c.reg.Histogram("simsearch_coord_request_seconds",
		"Coordinator request latency, by endpoint.", metrics.DefLatencyBuckets, lbl)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				sw.code = http.StatusInternalServerError
				if !sw.wrote {
					c.fail(sw, http.StatusInternalServerError, "internal error")
				}
			}
			reqs.Inc()
			switch {
			case sw.code >= 500:
				errs5.Inc()
			case sw.code >= 400:
				errs4.Inc()
			}
			lat.Observe(time.Since(start))
		}()
		h(sw, r)
	})
}

func (c *Coordinator) fail(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(httpapi.ErrorResponse{Error: msg})
}

// admit applies admission control: at most MaxInFlight query requests run
// concurrently; the rest are shed with 503 + Retry-After so an overloaded
// coordinator degrades by refusing fast instead of queueing without bound.
func (c *Coordinator) admit(w http.ResponseWriter) (release func(), ok bool) {
	if c.opts.MaxInFlight < 0 {
		return func() {}, true
	}
	if n := c.inflight.Add(1); n > int64(c.opts.MaxInFlight) {
		c.inflight.Add(-1)
		c.shed.Inc()
		w.Header().Set("Retry-After", "1")
		c.fail(w, http.StatusServiceUnavailable, "coordinator at capacity, retry later")
		return nil, false
	}
	return func() { c.inflight.Add(-1) }, true
}

// queryCtx derives the scatter context: the request context bounded by the
// configured Timeout.
func (c *Coordinator) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if c.opts.Timeout > 0 {
		return context.WithTimeout(r.Context(), c.opts.Timeout)
	}
	return context.WithCancel(r.Context())
}

// failScatter maps a scatter error onto the ladder: deadline → 504, client
// cancellation → 503, anything else (a shard unreachable on every replica,
// a malformed shard answer) → 502.
func (c *Coordinator) failScatter(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		c.fail(w, http.StatusGatewayTimeout, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		c.fail(w, http.StatusServiceUnavailable, err.Error())
	default:
		c.fail(w, http.StatusBadGateway, "shard unavailable: "+err.Error())
	}
}

// validateQuery applies the same ladder the shard servers apply, so a request
// the fleet would reject is rejected here without a round trip. Returns the
// normalized (defaulted) k.
func (c *Coordinator) validateQuery(w http.ResponseWriter, q string, k *int) (int, bool) {
	if q == "" {
		c.fail(w, http.StatusBadRequest, "missing q parameter")
		return 0, false
	}
	if len(q) > c.opts.MaxQueryLen {
		c.fail(w, http.StatusBadRequest,
			"query text exceeds the configured maximum of "+strconv.Itoa(c.opts.MaxQueryLen)+" bytes")
		return 0, false
	}
	kk := 2
	if k != nil {
		kk = *k
	}
	if kk < 0 || kk > c.opts.MaxK {
		c.fail(w, http.StatusBadRequest, "k out of range")
		return 0, false
	}
	return kk, true
}

// runBatch admits, scatters, and gathers one batch. The queries must be
// validated ExactQuery values: their bytes reach every shard unchanged
// whatever their encoding, and their K is explicit.
func (c *Coordinator) runBatch(w http.ResponseWriter, r *http.Request, qs []httpapi.BatchQuery) ([]httpapi.BatchResult, bool) {
	release, ok := c.admit(w)
	if !ok {
		return nil, false
	}
	defer release()
	body, err := json.Marshal(httpapi.BatchRequest{Queries: qs})
	if err != nil {
		c.fail(w, http.StatusInternalServerError, err.Error())
		return nil, false
	}
	ctx, cancel := c.queryCtx(r)
	defer cancel()
	per, err := c.scatter(ctx, body, len(qs))
	if err != nil {
		c.failScatter(w, err)
		return nil, false
	}
	return c.gather(qs, per), true
}

func (c *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query().Get("q")
	var kp *int
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			c.fail(w, http.StatusBadRequest, "k must be a non-negative integer")
			return
		}
		kp = &n
	}
	k, ok := c.validateQuery(w, q, kp)
	if !ok {
		return
	}
	start := time.Now()
	results, ok := c.runBatch(w, r, []httpapi.BatchQuery{httpapi.ExactQuery(q, k)})
	if !ok {
		return
	}
	if e := results[0].Error; e != "" {
		if e == context.DeadlineExceeded.Error() {
			c.fail(w, http.StatusGatewayTimeout, e)
		} else {
			c.fail(w, http.StatusBadGateway, e)
		}
		return
	}
	resp := httpapi.SearchResponse{
		Query: q, K: k,
		Matches: results[0].Matches,
		TookµS:  time.Since(start).Microseconds(),
	}
	if resp.Matches == nil {
		resp.Matches = []httpapi.MatchJSON{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		c.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := httpapi.DecodeBatch(http.MaxBytesReader(w, r.Body, c.opts.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			c.fail(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the configured maximum of "+
					strconv.FormatInt(tooBig.Limit, 10)+" bytes")
			return
		}
		c.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Queries) == 0 {
		c.fail(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > c.opts.MaxBatch {
		c.fail(w, http.StatusRequestEntityTooLarge, "batch exceeds the configured maximum")
		return
	}
	qs := make([]httpapi.BatchQuery, len(req.Queries))
	for i, bq := range req.Queries {
		text, err := bq.Text()
		if err != nil {
			c.fail(w, http.StatusBadRequest, err.Error())
			return
		}
		k, ok := c.validateQuery(w, text, bq.K)
		if !ok {
			return
		}
		qs[i] = httpapi.ExactQuery(text, k)
	}
	start := time.Now()
	results, ok := c.runBatch(w, r, qs)
	if !ok {
		return
	}
	resp := httpapi.BatchResponse{Results: results, TookµS: time.Since(start).Microseconds()}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// replicaStatsJSON is one replica's health in the coordinator /stats payload.
type replicaStatsJSON struct {
	URL string `json:"url"`
	Up  bool   `json:"up"`
}

// shardStatsJSON is one shard's fan-out state in the coordinator /stats
// payload. HedgeDelayµS is the delay the next hedge timer would use.
type shardStatsJSON struct {
	Base         int32              `json:"base"`
	Count        int                `json:"count"`
	RPCs         uint64             `json:"rpcs"`
	Errors       uint64             `json:"errors"`
	Hedges       uint64             `json:"hedges"`
	HedgeWins    uint64             `json:"hedge_wins"`
	P50µS        int64              `json:"rpc_p50_us"`
	P99µS        int64              `json:"rpc_p99_us"`
	HedgeDelayµS int64              `json:"hedge_delay_us,omitempty"`
	Replicas     []replicaStatsJSON `json:"replicas"`
}

// statsResponse is the coordinator /stats payload.
type statsResponse struct {
	Shards        []shardStatsJSON `json:"shards"`
	Strings       int              `json:"strings"`
	InFlight      int64            `json:"in_flight"`
	MaxInFlight   int              `json:"max_in_flight"`
	Shed          uint64           `json:"shed"`
	HedgeQuantile float64          `json:"hedge_quantile,omitempty"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := statsResponse{
		Strings:       c.Strings(),
		InFlight:      c.inflight.Load(),
		MaxInFlight:   c.opts.MaxInFlight,
		Shed:          c.shed.Value(),
		HedgeQuantile: c.opts.HedgeQuantile,
	}
	now := time.Now().UnixNano()
	for _, sh := range c.shards {
		snap := sh.lat.Snapshot()
		sj := shardStatsJSON{
			Base: sh.base, Count: sh.count,
			RPCs: sh.rpcs.Value(), Errors: sh.errs.Value(),
			Hedges: sh.hedges.Value(), HedgeWins: sh.hedgeWins.Value(),
			P50µS: snap.Quantile(0.50).Microseconds(),
			P99µS: snap.Quantile(0.99).Microseconds(),
		}
		if q := c.opts.HedgeQuantile; q > 0 && q < 1 {
			sj.HedgeDelayµS = sh.hedgeDelay(q, c.opts.HedgeMin).Microseconds()
		}
		for _, rep := range sh.replicas {
			sj.Replicas = append(sj.Replicas, replicaStatsJSON{URL: rep.url, Up: rep.up(now)})
		}
		resp.Shards = append(resp.Shards, sj)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	c.reg.Handler().ServeHTTP(w, r)
}

// handleHealth reports coordinator liveness plus fleet routability: 200 when
// every shard has at least one replica with a closed breaker, 503 otherwise —
// a load balancer in front of several coordinators can then drain one whose
// view of the fleet has gone dark.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	now := time.Now().UnixNano()
	for i, sh := range c.shards {
		ok := false
		for _, rep := range sh.replicas {
			if rep.up(now) {
				ok = true
				break
			}
		}
		if !ok {
			c.fail(w, http.StatusServiceUnavailable, "shard "+strconv.Itoa(i)+" has no routable replica")
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}
