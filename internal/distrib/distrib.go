// Package distrib is the distributed scatter-gather serving tier: a
// coordinator that answers POST /search/batch by fanning the batch out to N
// shard servers, each holding a contiguous-ID partition of the dataset, and
// merging the per-shard answers back into exactly the result a single-process
// engine would have produced.
//
// The load-bearing contract is the one internal/exec already proves in
// process: every shard returns matches sorted by ID and shards cover
// contiguous ID ranges in dataset order, so the per-query fan-in is a
// concatenation in shard order — after remapping each shard's local IDs by
// its base offset, the result is byte-identical to a single exec.Sharded run
// over the same data.
// Which engine each shard runs is invisible to the coordinator; per-partition
// selectivity can pick scan, trie, or cascade independently.
//
// Robustness is the point, not just fan-out:
//
//   - Hedged requests: each shard RPC may launch a second attempt once the
//     first has been in flight longer than a configured quantile of that
//     shard's own successful-RPC latency histogram (floored by HedgeMin).
//     The first answer wins and the loser is cancelled, cutting tail latency
//     when one replica hits a GC pause, a queue, or a slow disk.
//   - Health and circuit breaking: replicas accumulate consecutive-failure
//     counts; at failThreshold the replica's breaker opens for
//     BreakerCooldown and traffic fails over to the next replica. A
//     background prober (StartProber) additionally walks every replica's
//     /healthz so dead backends are discovered before a request has to.
//   - Admission control: at most MaxInFlight batch/search requests are
//     admitted concurrently; beyond that the coordinator sheds load with
//     503 + Retry-After instead of queueing without bound.
//
// Everything is pure stdlib (net/http), keeping the repo's zero-dependency
// stance. The request contract — limits, the query check, the batch-body
// reader and the per-endpoint instrumentation — is the shard servers' own
// (httpapi.Limits, httpapi.Front): simsearch_coord_* metrics on GET /metrics
// and a coordinator section on GET /stats.
package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"simsearch/internal/httpapi"
	"simsearch/internal/metrics"
)

// ShardSpec describes one dataset partition: the base URLs of the servers
// holding it (first is the preferred primary, the rest are replicas for
// failover and hedging). Specs must be listed in dataset order — shard i
// serves the contiguous ID range starting where shard i-1 ends — because the
// fan-in relies on that order to restore global ID order. Count is the number
// of strings the shard holds; leave it zero and call Discover to learn it
// from the shard's own /stats.
type ShardSpec struct {
	Replicas []string
	Count    int
}

// Options configures New. The zero value takes the shard servers' default
// limits, admits 1024 concurrent requests, opens a replica breaker after
// failThreshold consecutive failures for 1 s, and disables hedging.
type Options struct {
	// HedgeQuantile, when in (0,1), arms a hedge timer per shard RPC at that
	// quantile of the shard's successful-RPC latency histogram: if the
	// primary attempt is still in flight when the timer fires, a second
	// attempt is launched (on another replica when one is available) and the
	// first answer wins. 0 disables hedging.
	HedgeQuantile float64
	// HedgeMin floors the hedge delay, and is used verbatim until the shard
	// has enough latency samples for the quantile to mean anything.
	// Default 1ms.
	HedgeMin time.Duration
	// MaxInFlight caps concurrently admitted query requests; excess requests
	// are shed with 503 + Retry-After. Default 1024; negative = unlimited.
	MaxInFlight int
	// Timeout bounds the whole scatter-gather of one request. Expiry maps to
	// 504. Zero disables the server-side deadline (the request context still
	// cancels on client disconnect).
	Timeout time.Duration
	// BreakerCooldown is how long an opened breaker rejects a replica before
	// letting a half-open probe through. Also the down-time applied by a
	// failed health probe. Default 1s.
	BreakerCooldown time.Duration
	// Limits are the request limits, checked exactly as a shard server
	// checks them, so the coordinator rejects what its shards would reject,
	// without a round trip. Give the shard servers the same limits.
	Limits httpapi.Limits
	// transport overrides the HTTP transport, and clock the wall clock
	// (tests only).
	transport http.RoundTripper
	clock     clock
}

// clock is where the coordinator reads wall time: breaker cooldowns, hedge
// timers, probe intervals and RPC durations. Timeout's deadline stays on the
// context, in real time.
type clock interface {
	Now() time.Time
	// NewTimer returns a channel that receives once d has passed, and the
	// timer's Stop.
	NewTimer(d time.Duration) (<-chan time.Time, func() bool)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTimer(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// failThreshold is the consecutive-failure count that opens a replica's
// circuit breaker.
const failThreshold = 3

func (o *Options) withDefaults() {
	if o.HedgeMin <= 0 {
		o.HedgeMin = time.Millisecond
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 1024
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.clock == nil {
		o.clock = wallClock{}
	}
}

// replica is one backend serving a shard, with its circuit-breaker state.
type replica struct {
	url       string
	fails     atomic.Int32 // consecutive failures toward the threshold
	downUntil atomic.Int64 // unix nanos the breaker stays open until; 0 = closed
}

func (r *replica) up(now int64) bool {
	du := r.downUntil.Load()
	return du == 0 || now >= du
}

func (r *replica) onSuccess() {
	r.fails.Store(0)
	r.downUntil.Store(0)
}

func (r *replica) onFailure(now time.Time, cooldown time.Duration) {
	if r.fails.Add(1) >= failThreshold {
		r.trip(now, cooldown)
	}
}

// trip opens the breaker for cooldown from now (used by both the failure
// threshold and a failed health probe).
func (r *replica) trip(now time.Time, cooldown time.Duration) {
	r.fails.Store(0)
	r.downUntil.Store(now.Add(cooldown).UnixNano())
}

// shardState is one partition's runtime state: replicas, the global ID base,
// and the counters feeding both /stats and the hedge-delay estimate.
type shardState struct {
	replicas []*replica
	base     int32
	count    int
	rr       atomic.Uint32 // round-robin cursor over replicas
	// lat holds successful-RPC latencies only: failures (instant connection
	// refusals, slow timeouts) would drag the hedge quantile away from the
	// "healthy replica" distribution the hedge delay models.
	lat       *metrics.Histogram
	rpcs      metrics.Counter
	errs      metrics.Counter
	hedges    metrics.Counter
	hedgeWins metrics.Counter
}

// pick returns the replica to try next: round-robin over replicas up at
// now, skipping exclude. When every candidate's breaker is open it returns
// the one whose breaker expires soonest (a half-open last resort —
// availability wins over breaker purity when there is nothing else to route
// to). Returns nil only when exclude is the lone replica.
func (sh *shardState) pick(exclude *replica, now int64) *replica {
	n := len(sh.replicas)
	start := int(sh.rr.Add(1))
	var fallback *replica
	for i := 0; i < n; i++ {
		rep := sh.replicas[(start+i)%n]
		if rep == exclude {
			continue
		}
		if rep.up(now) {
			return rep
		}
		if fallback == nil || rep.downUntil.Load() < fallback.downUntil.Load() {
			fallback = rep
		}
	}
	return fallback
}

// hedgeDelay is the in-flight duration after which a shard RPC hedges: the
// configured quantile of this shard's successful-RPC latency, floored by min.
// Until minSamples successes have been observed the floor is used verbatim —
// a quantile over a handful of points is noise.
const minHedgeSamples = 32

func (sh *shardState) hedgeDelay(q float64, min time.Duration) time.Duration {
	snap := sh.lat.Snapshot()
	if snap.Count < minHedgeSamples {
		return min
	}
	if d := snap.Quantile(q); d > min {
		return d
	}
	return min
}

// Coordinator is the scatter-gather tier: an http.Handler fanning
// /search/batch (and single-query /search) across the shard fleet.
type Coordinator struct {
	shards []*shardState
	opts   Options
	client *http.Client
	front  *httpapi.Front

	inflight atomic.Int64
	shed     metrics.Counter
}

// New builds a coordinator over the given shard fleet. Counts (and with them
// each shard's global ID base) are taken from the specs when set; otherwise
// call Discover before serving traffic. Specs must be in dataset order.
func New(specs []ShardSpec, opts Options) (*Coordinator, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("distrib: no shards configured")
	}
	opts.withDefaults()
	c := &Coordinator{
		opts:  opts,
		front: httpapi.NewFront("simsearch_coord"),
	}
	tr := opts.transport
	if tr == nil {
		tr = &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	c.client = &http.Client{Transport: tr}
	for i, spec := range specs {
		if len(spec.Replicas) == 0 {
			return nil, fmt.Errorf("distrib: shard %d has no replicas", i)
		}
		sh := &shardState{
			count: spec.Count,
			lat:   metrics.NewHistogram(nil),
		}
		for _, u := range spec.Replicas {
			u = strings.TrimRight(u, "/")
			if u == "" {
				return nil, fmt.Errorf("distrib: shard %d has an empty replica URL", i)
			}
			sh.replicas = append(sh.replicas, &replica{url: u})
		}
		c.shards = append(c.shards, sh)
	}
	c.rebase()
	c.routes()
	c.registerMetrics()
	return c, nil
}

// rebase recomputes every shard's global ID base as the prefix sum of counts
// in spec order — the same contiguous partition layout exec.New builds.
func (c *Coordinator) rebase() {
	base := 0
	for _, sh := range c.shards {
		sh.base = int32(base)
		base += sh.count
	}
}

// Strings returns the total dataset size across shards (0 before Discover
// when counts were not configured).
func (c *Coordinator) Strings() int {
	total := 0
	for _, sh := range c.shards {
		total += sh.count
	}
	return total
}

// NumShards returns the partition count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Registry returns the coordinator's metric registry.
func (c *Coordinator) Registry() *metrics.Registry { return c.front.Registry() }

// Discover asks each shard's /stats for its string count and recomputes the
// global ID bases. It must run before traffic when specs carried no counts;
// rerun it after a resharding. Replicas are tried in order; every replica of
// a shard failing fails the discovery.
func (c *Coordinator) Discover(ctx context.Context) error {
	for i, sh := range c.shards {
		var lastErr error
		found := false
		for _, rep := range sh.replicas {
			n, err := c.fetchCount(ctx, rep.url)
			if err != nil {
				lastErr = err
				continue
			}
			sh.count = n
			found = true
			break
		}
		if !found {
			return fmt.Errorf("distrib: discovering shard %d: %w", i, lastErr)
		}
	}
	c.rebase()
	return nil
}

// fetchCount reads the "count" field of a shard server's /stats.
func (c *Coordinator) fetchCount(ctx context.Context, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp.Body)
		return 0, fmt.Errorf("%s/stats: status %d", url, resp.StatusCode)
	}
	var st struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("%s/stats: %w", url, err)
	}
	if st.Count < 0 {
		return 0, fmt.Errorf("%s/stats: negative count %d", url, st.Count)
	}
	return st.Count, nil
}

// StartProber launches the background health prober: every interval it walks
// each replica's /healthz, opening the breaker of replicas that fail and
// closing it for replicas that answer, so dead backends are discovered before
// a request has to pay for the discovery. The prober stops when ctx is done.
func (c *Coordinator) StartProber(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		for {
			tick, stop := c.opts.clock.NewTimer(interval)
			select {
			case <-ctx.Done():
				stop()
				return
			case <-tick:
			}
			c.ProbeOnce(ctx)
		}
	}()
}

// ProbeOnce health-checks every replica of every shard once (exported so
// tests and operators can force a sweep).
func (c *Coordinator) ProbeOnce(ctx context.Context) {
	for _, sh := range c.shards {
		for _, rep := range sh.replicas {
			pctx, cancel := context.WithTimeout(ctx, c.opts.BreakerCooldown)
			ok := c.probe(pctx, rep.url)
			cancel()
			if ok {
				rep.onSuccess()
			} else {
				rep.trip(c.opts.clock.Now(), c.opts.BreakerCooldown)
			}
		}
	}
}

func (c *Coordinator) probe(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	drain(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// rpcOutcome is one attempt's result in the hedged shard call.
type rpcOutcome struct {
	resp  *httpapi.BatchResponse
	err   error
	rep   *replica
	took  time.Duration
	hedge bool
}

// callShard runs the batch against one shard with hedging and replica
// failover: the primary attempt goes to the round-robin healthy replica; a
// hedge fires after the shard's latency-quantile delay; a failed attempt
// fails over to an untried replica. The first successful answer wins: the
// losers are cancelled through the shared attempt context and waited for,
// so each is on the books before the call returns. The fan-in loop selects
// on ctx so a dead request never pins the coordinator.
func (c *Coordinator) callShard(ctx context.Context, sh *shardState, body []byte) (*httpapi.BatchResponse, error) {
	clk := c.opts.clock
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	outc := make(chan rpcOutcome, len(sh.replicas)+1)
	tried := make(map[*replica]bool, len(sh.replicas))
	outstanding := 0
	launch := func(rep *replica, hedge bool) {
		tried[rep] = true
		outstanding++
		sh.rpcs.Inc()
		go func() {
			start := clk.Now()
			resp, err := c.post(actx, rep, body)
			outc <- rpcOutcome{resp: resp, err: err, rep: rep, took: clk.Now().Sub(start), hedge: hedge}
		}()
	}
	// fail books a failed attempt, unless it failed because this call
	// cancelled it: a loser is not its replica's fault.
	fail := func(out rpcOutcome) {
		if actx.Err() == nil {
			out.rep.onFailure(clk.Now(), c.opts.BreakerCooldown)
			sh.errs.Inc()
		}
	}
	primary := sh.pick(nil, clk.Now().UnixNano())
	launch(primary, false)

	var hedgeC <-chan time.Time
	if q := c.opts.HedgeQuantile; q > 0 && q < 1 {
		tc, stop := clk.NewTimer(sh.hedgeDelay(q, c.opts.HedgeMin))
		defer stop()
		hedgeC = tc
	}

	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			rep := sh.pick(primary, clk.Now().UnixNano())
			if rep == nil {
				// Single-replica shard: hedge against the same backend —
				// still worth it when the tail is queueing, not the server.
				rep = primary
			}
			sh.hedges.Inc()
			launch(rep, true)
		case out := <-outc:
			outstanding--
			if out.err == nil {
				out.rep.onSuccess()
				sh.lat.Observe(out.took)
				if out.hedge {
					sh.hedgeWins.Inc()
				}
				cancel()
				for ; outstanding > 0; outstanding-- {
					if lost := <-outc; lost.err != nil {
						fail(lost)
					}
				}
				return out.resp, nil
			}
			fail(out)
			if firstErr == nil {
				firstErr = out.err
			}
			// Failover: try a replica this call has not touched yet.
			var next *replica
			now := clk.Now().UnixNano()
			for _, rep := range sh.replicas {
				if !tried[rep] && rep.up(now) {
					next = rep
					break
				}
			}
			if next == nil && outstanding == 0 {
				for _, rep := range sh.replicas {
					if !tried[rep] {
						next = rep // last resort: breaker-open but untried
						break
					}
				}
			}
			if next != nil {
				launch(next, false)
			} else if outstanding == 0 {
				return nil, firstErr
			}
		}
	}
}

// post runs one POST /search/batch attempt against a replica.
func (c *Coordinator) post(ctx context.Context, rep *replica, body []byte) (*httpapi.BatchResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/search/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp.Body)
		return nil, fmt.Errorf("shard %s: status %d", rep.url, resp.StatusCode)
	}
	var br httpapi.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, fmt.Errorf("shard %s: decoding response: %w", rep.url, err)
	}
	return &br, nil
}

// drain empties (a bounded prefix of) a response body so the connection can
// be reused by the keep-alive pool.
func drain(r io.Reader) {
	io.Copy(io.Discard, io.LimitReader(r, 4096))
}

// scatter fans the marshalled batch body to every shard concurrently and
// collects the per-shard responses. Shards answer in parallel; the slowest
// shard (after hedging) sets the request latency.
func (c *Coordinator) scatter(ctx context.Context, body []byte, nq int) ([]*httpapi.BatchResponse, error) {
	per := make([]*httpapi.BatchResponse, len(c.shards))
	errc := make(chan error, len(c.shards))
	for i, sh := range c.shards {
		go func(i int, sh *shardState) {
			resp, err := c.callShard(ctx, sh, body)
			if err == nil && len(resp.Results) != nq {
				err = fmt.Errorf("shard %d answered %d results for %d queries", i, len(resp.Results), nq)
			}
			per[i] = resp
			errc <- err
		}(i, sh)
	}
	var firstErr error
	for range c.shards {
		select {
		case err := <-errc:
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return per, nil
}

// gather assembles the per-query fan-in of nq queries as exec's merge
// does: rebase gives the shards contiguous prefix-sum bases in spec order, so
// each shard's ID-ascending run, remapped by its base, is appended in shard
// order. A shard-reported per-query error (deadline, cancellation) is
// propagated in shard order, exactly as exec.Sharded reports the first
// failing shard task.
func (c *Coordinator) gather(nq int, per []*httpapi.BatchResponse) []httpapi.BatchResult {
	results := make([]httpapi.BatchResult, nq)
	for qi := range results {
		br := httpapi.BatchResult{Query: per[0].Results[qi].Query, K: per[0].Results[qi].K}
		for si, resp := range per {
			r := resp.Results[qi]
			if r.Error != "" {
				br.Error, br.Matches = r.Error, nil
				break
			}
			for _, m := range r.Matches {
				m.ID += c.shards[si].base
				br.Matches = append(br.Matches, m)
			}
		}
		results[qi] = br
	}
	return results
}

// Partition returns the contiguous [lo,hi) ranges a p-shard exec.Sharded
// builds over n strings (same clamping rules as exec.New), so shard servers
// can be stood up over exactly the slices the single-process executor would
// use — the precondition for byte-identical distributed results.
func Partition(n, p int) [][2]int {
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	out := make([][2]int, p)
	for i := 0; i < p; i++ {
		out[i] = [2]int{i * n / p, (i + 1) * n / p}
	}
	return out
}
