package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"simsearch/internal/core"
	"simsearch/internal/httpapi"
	"simsearch/internal/metrics"
)

// routes mounts the coordinator endpoints on the shard servers' front
// (httpapi.Front), which also serves GET /metrics. The JSON wire types are
// httpapi's own, so a coordinator is a drop-in replacement for a single
// shard server from a client's point of view.
func (c *Coordinator) routes() {
	get := http.MethodGet
	c.front.Handle(get, "/search", "search", c.handleSearch)
	c.front.Handle(http.MethodPost, "/search/batch", "batch", c.handleBatch)
	c.front.Handle(get, "/stats", "stats", c.handleStats)
	c.front.Handle(get, "/healthz", "healthz", c.handleHealth)
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.front.ServeHTTP(w, r)
}

// registerMetrics exposes the coordinator's own serving state under
// simsearch_coord_* names.
func (c *Coordinator) registerMetrics() {
	reg := c.Registry()
	reg.GaugeFunc("simsearch_coord_inflight_requests",
		"Query requests currently admitted.",
		func() float64 { return float64(c.inflight.Load()) })
	reg.CounterFunc("simsearch_coord_shed_total",
		"Requests shed by admission control (503 + Retry-After).",
		func() float64 { return float64(c.shed.Value()) })
	for i := range c.shards {
		sh := c.shards[i]
		lbl := metrics.L("shard", strconv.Itoa(i))
		reg.CounterFunc("simsearch_coord_shard_rpcs_total",
			"Shard RPC attempts launched (hedges and failovers included), by shard.",
			func() float64 { return float64(sh.rpcs.Value()) }, lbl)
		reg.CounterFunc("simsearch_coord_shard_errors_total",
			"Failed shard RPC attempts, by shard.",
			func() float64 { return float64(sh.errs.Value()) }, lbl)
		reg.CounterFunc("simsearch_coord_hedges_total",
			"Hedge attempts launched, by shard.",
			func() float64 { return float64(sh.hedges.Value()) }, lbl)
		reg.CounterFunc("simsearch_coord_hedge_wins_total",
			"Hedge attempts that answered first, by shard.",
			func() float64 { return float64(sh.hedgeWins.Value()) }, lbl)
		reg.RegisterHistogram("simsearch_coord_shard_rpc_seconds",
			"Latency of successful shard RPCs (feeds the hedge delay).", sh.lat, lbl)
		for j, rep := range sh.replicas {
			rep := rep
			reg.GaugeFunc("simsearch_coord_replica_up",
				"1 when the replica's circuit breaker is closed, by shard and replica.",
				func() float64 {
					if rep.up(c.opts.clock.Now().UnixNano()) {
						return 1
					}
					return 0
				}, lbl, metrics.L("replica", strconv.Itoa(j)))
		}
	}
}

// admit applies admission control: at most MaxInFlight query requests run
// concurrently; the rest are shed with 503 + Retry-After so an overloaded
// coordinator degrades by refusing fast instead of queueing without bound.
func (c *Coordinator) admit(w http.ResponseWriter) (release func(), err error) {
	if c.opts.MaxInFlight < 0 {
		return func() {}, nil
	}
	if n := c.inflight.Add(1); n > int64(c.opts.MaxInFlight) {
		c.inflight.Add(-1)
		c.shed.Inc()
		w.Header().Set("Retry-After", "1")
		return nil, &httpapi.Error{Status: http.StatusServiceUnavailable, Msg: "coordinator at capacity, retry later"}
	}
	return func() { c.inflight.Add(-1) }, nil
}

// queryCtx derives the scatter context: the request context bounded by the
// configured Timeout.
func (c *Coordinator) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if c.opts.Timeout > 0 {
		return context.WithTimeout(r.Context(), c.opts.Timeout)
	}
	return context.WithCancel(r.Context())
}

// scatterError maps a scatter failure onto the ladder: a deadline (504) or
// a client's cancellation (503) answers as on a shard server; anything else
// (a shard unreachable on every replica, a malformed shard answer) is 502.
func scatterError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	return &httpapi.Error{Status: http.StatusBadGateway, Msg: "shard unavailable: " + err.Error()}
}

// forwardBody is the batch a shard receives for qs: each query's bytes
// unchanged whatever their encoding (httpapi.ExactQuery), no HTML escaping,
// which would spell each of <, > and & in six bytes, and U+2028 and U+2029
// raw, which encoding/json always spells in six bytes too. So the body is
// about the size of the client's, and under the body cap the shards share
// with the coordinator.
func forwardBody(qs []core.Query) ([]byte, error) {
	req := httpapi.BatchRequest{Queries: make([]httpapi.BatchQuery, len(qs))}
	for i, q := range qs {
		req.Queries[i] = httpapi.ExactQuery(q.Text, q.K)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(req)
	return unescapeLineSeparators(buf.Bytes()), err
}

// unescapeLineSeparators rewrites encoding/json's \u2028 and \u2029 as the
// three-byte characters, in place. Every other escape, an escaped backslash
// before "u2028" among them, is copied as it stands.
func unescapeLineSeparators(b []byte) []byte {
	if !bytes.Contains(b, []byte(`\u202`)) {
		return b
	}
	out := b[:0]
	for i := 0; i < len(b); i++ {
		switch {
		case b[i] != '\\':
			out = append(out, b[i])
		case bytes.HasPrefix(b[i:], []byte(`\u2028`)), bytes.HasPrefix(b[i:], []byte(`\u2029`)):
			out = append(out, 0xe2, 0x80, 0xa8+b[i+5]-'8')
			i += 5
		default:
			out = append(out, b[i], b[i+1])
			i++
		}
	}
	return out
}

// runBatch admits, scatters, and gathers one batch of checked queries.
func (c *Coordinator) runBatch(w http.ResponseWriter, r *http.Request, qs []core.Query) ([]httpapi.BatchResult, error) {
	release, err := c.admit(w)
	if err != nil {
		return nil, err
	}
	defer release()
	body, err := forwardBody(qs)
	if err != nil {
		return nil, err
	}
	ctx, cancel := c.queryCtx(r)
	defer cancel()
	per, err := c.scatter(ctx, body, len(qs))
	if err != nil {
		return nil, scatterError(err)
	}
	return c.gather(len(qs), per), nil
}

func (c *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) error {
	q, err := c.opts.Limits.SearchQuery(r)
	if err != nil {
		return err
	}
	start := c.opts.clock.Now()
	results, err := c.runBatch(w, r, []core.Query{q})
	if err != nil {
		return err
	}
	if e := results[0].Error; e != "" {
		if e == context.DeadlineExceeded.Error() {
			return &httpapi.Error{Status: http.StatusGatewayTimeout, Msg: e}
		}
		return &httpapi.Error{Status: http.StatusBadGateway, Msg: e}
	}
	resp := httpapi.SearchResponse{
		Query: q.Text, K: q.K,
		Matches: results[0].Matches,
		TookµS:  c.opts.clock.Now().Sub(start).Microseconds(),
	}
	if resp.Matches == nil {
		resp.Matches = []httpapi.MatchJSON{}
	}
	httpapi.WriteJSON(w, resp)
	return nil
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) error {
	qs, err := c.opts.Limits.ReadBatch(w, r)
	if err != nil {
		return err
	}
	start := c.opts.clock.Now()
	results, err := c.runBatch(w, r, qs)
	if err != nil {
		return err
	}
	httpapi.WriteJSON(w, httpapi.BatchResponse{Results: results, TookµS: c.opts.clock.Now().Sub(start).Microseconds()})
	return nil
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

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) error {
	resp := statsResponse{
		Strings:       c.Strings(),
		InFlight:      c.inflight.Load(),
		MaxInFlight:   c.opts.MaxInFlight,
		Shed:          c.shed.Value(),
		HedgeQuantile: c.opts.HedgeQuantile,
	}
	now := c.opts.clock.Now().UnixNano()
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
	httpapi.WriteJSON(w, resp)
	return nil
}

// handleHealth reports coordinator liveness plus fleet routability: 200 when
// every shard has at least one replica with a closed breaker, 503 otherwise —
// a load balancer in front of several coordinators can then drain one whose
// view of the fleet has gone dark.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) error {
	now := c.opts.clock.Now().UnixNano()
	for i, sh := range c.shards {
		ok := false
		for _, rep := range sh.replicas {
			if rep.up(now) {
				ok = true
				break
			}
		}
		if !ok {
			return &httpapi.Error{Status: http.StatusServiceUnavailable, Msg: "shard " + strconv.Itoa(i) + " has no routable replica"}
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
	return nil
}
