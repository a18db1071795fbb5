package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"simsearch"
	"simsearch/internal/distrib"
	"simsearch/internal/httpapi"
)

// Sizes of city-serve. One pass of the Zipf stream touches about 2,450
// distinct queries of the pool, 2.4 times what the result cache holds, and
// every pass replays the same stream: the hot queries hit, the ones asked
// once a pass have been evicted by the next, so the cache hits, misses and
// evicts in steady state.
const (
	serveCorpus   = 100000
	servePool     = 20000
	serveCache    = 1024
	serveRequests = 10000 // per pass, over both clients
	serveYard     = 600   // pool queries the bare scan and index answer, a third per pass
	serveClients  = 2
	zipfS         = 1.1
)

// listen serves h on a loopback TCP port and returns its base URL and a
// stop function that shuts the server down and waits for it.
func listen(h http.Handler) (base string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns ErrServerClosed after Shutdown
	}()
	return "http://" + l.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
		<-done
	}, nil
}

// client is one closed-loop HTTP caller holding one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder // nil when untraced
}

func newClient(base string, rec *recorder) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr}, base: base, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req and reads the whole body, under a client span in a traced
// run. It returns the body and the time from send to last byte.
func (c *client) do(req *http.Request) ([]byte, time.Duration, error) {
	var ref spanRef
	if c.rec != nil {
		ref = c.rec.begin("client", noSpan)
		req.Header.Set(spanHeader, ref.header())
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if c.rec != nil {
		c.rec.end(ref)
	}
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, took, nil
}

func searchURL(base string, q simsearch.Query) string {
	return base + "/search?q=" + url.QueryEscape(q.Text) + "&k=" + strconv.Itoa(q.K)
}

func toMatches(ms []httpapi.MatchJSON) []simsearch.Match {
	out := make([]simsearch.Match, len(ms))
	for i, m := range ms {
		out[i] = simsearch.Match{ID: m.ID, Dist: m.Dist}
	}
	return out
}

// search answers one query over GET /search.
func (c *client) search(target string) ([]simsearch.Match, int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	body, took, err := c.do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	var resp httpapi.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, 0, fmt.Errorf("decode: %w", err)
	}
	return toMatches(resp.Matches), len(body), took, nil
}

// batch answers qs over POST /search/batch.
func (c *client) batch(qs []simsearch.Query) ([][]simsearch.Match, time.Duration, error) {
	var breq httpapi.BatchRequest
	for _, q := range qs {
		k := q.K
		breq.Queries = append(breq.Queries, httpapi.BatchQuery{Q: q.Text, K: &k})
	}
	raw, err := json.Marshal(breq)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/search/batch", bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	body, took, err := c.do(req)
	if err != nil {
		return nil, 0, err
	}
	var resp httpapi.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	out := make([][]simsearch.Match, len(resp.Results))
	for i, r := range resp.Results {
		if r.Error != "" {
			return nil, 0, fmt.Errorf("query %d: %s", i, r.Error)
		}
		out[i] = toMatches(r.Matches)
	}
	return out, took, nil
}

// httpSearcher lets the DP oracle drive the whole HTTP stack.
type httpSearcher struct {
	c    *client
	n    int
	fail func(error)
}

func (h httpSearcher) Name() string { return "http" }
func (h httpSearcher) Len() int     { return h.n }
func (h httpSearcher) Search(q simsearch.Query) []simsearch.Match {
	ms, _, _, err := h.c.search(searchURL(h.c.base, q))
	if err != nil {
		h.fail(err)
	}
	return ms
}

// serveStack is the production composition of city-serve behind a loopback
// listener: httpapi over the result cache over a 2-shard router executor.
// With a recorder, a span is inserted at each boundary.
type serveStack struct {
	shards []simsearch.Searcher // the per-shard routers
	cached *simsearch.Cached
	api    *httpapi.Server
	base   string
	stop   func()
}

func startStack(rec *recorder, data []string, capacity int) (*serveStack, error) {
	sharded := simsearch.NewSharded(data, 2, simsearch.Options{Algorithm: simsearch.Router})
	for _, e := range sharded.ShardEngines() {
		prime(e)
	}
	st := &serveStack{shards: sharded.ShardEngines()}
	st.cached = simsearch.NewCached(wrap(rec, "exec", sharded), capacity)
	st.api = httpapi.New(wrap(rec, "cache", st.cached), data)
	var h http.Handler = st.api
	if rec != nil {
		h = rec.handler("httpapi", h)
	}
	var err error
	st.base, st.stop, err = listen(h)
	return st, err
}

// driver is the closed-loop client side of city-serve: serveClients
// clients, one keep-alive connection each, over a fixed request stream.
type driver struct {
	b       *bench
	clients []*client
	urls    []string // per pool entry
	stream  []int    // pool indices, in request order
	ref     [][]simsearch.Match
}

func newDriver(b *bench, base string, rec *recorder, pool []simsearch.Query, stream []int, ref [][]simsearch.Match) *driver {
	d := &driver{b: b, stream: stream, ref: ref, urls: make([]string, len(pool))}
	for i, q := range pool {
		d.urls[i] = searchURL(base, q)
	}
	for i := 0; i < serveClients; i++ {
		d.clients = append(d.clients, newClient(base, rec))
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.close()
	}
}

// passResult is one pass of the driver. lat and cycle are per request, in
// stream order, in ns: lat from send to last byte, cycle from send to the
// client being ready for its next request (decoding and checking included).
type passResult struct {
	lat, cycle []float64
	wall       time.Duration
	bytes      int64
}

// pass sends the stream, client c taking every serveClients-th request, and
// checks every answer.
func (d *driver) pass() passResult {
	p := passResult{lat: make([]float64, len(d.stream)), cycle: make([]float64, len(d.stream))}
	var bytesTotal atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(d.stream); i += len(d.clients) {
				t := time.Now()
				target := d.urls[d.stream[i]]
				ms, size, took, err := cl.search(target)
				if err != nil {
					d.b.attempted.Add(1)
					d.b.fail("GET %s: %v", target, err)
					continue
				}
				bytesTotal.Add(int64(size))
				d.b.check("http", ms, d.ref[d.stream[i]])
				p.lat[i], p.cycle[i] = float64(took.Nanoseconds()), float64(time.Since(t).Nanoseconds())
			}
		}()
	}
	wg.Wait()
	p.wall, p.bytes = time.Since(start), bytesTotal.Load()
	return p
}

func runServe(b *bench) error {
	start := time.Now()
	data := simsearch.GenerateCities(b.scale(serveCorpus), b.cfg.seed)
	b.add("dataset.gen_s", time.Since(start).Seconds())
	capacity := b.scale(serveCache)

	// The pool of distinct queries, each with its own fixed threshold, and
	// the Zipf-distributed request stream over it.
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var pool []simsearch.Query
	seen := map[string]bool{}
	for _, t := range simsearch.GenerateQueries(data, b.scale(servePool), 2, b.cfg.seed) {
		if seen[t] {
			continue
		}
		seen[t] = true
		k := 0
		if r := rng.Float64(); r >= 0.8 {
			k = 2
		} else if r >= 0.5 {
			k = 1
		}
		pool = append(pool, simsearch.Query{Text: t, K: k})
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
	stream := make([]int, b.scale(serveRequests))
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}
	b.sizes["corpus_strings"], b.sizes["corpus_bytes"] = len(data), corpusBytes(data)
	b.sizes["query_pool"], b.sizes["cache_entries"], b.sizes["requests_per_pass"] = len(pool), capacity, len(stream)
	distinct := map[int]bool{}
	for _, p := range stream {
		distinct[p] = true
	}
	b.sizes["stream_distinct"] = len(distinct)

	// Tier 1: the whole HTTP stack against the DP oracle on a slice.
	slice := preflightSlice(data)
	pre, err := startStack(nil, slice, capacity)
	if err != nil {
		return err
	}
	preClient := newClient(pre.base, nil)
	b.verify("http stack (slice)", httpSearcher{preClient, len(slice), func(err error) {
		b.fail("http stack (slice): %v", err)
	}}, slice, roundRobin(slice, []int{0, 1, 2}, 22, b.cfg.seed+100)[:64])
	preClient.close()
	pre.stop()

	var st *serveStack
	var scan, index simsearch.Searcher
	build := func() (func(), error) {
		var err error
		if st, err = startStack(b.rec, data, capacity); err != nil {
			return nil, err
		}
		scan = simsearch.NewBitParallel(data, 0)
		t := time.Now()
		index = simsearch.NewIndex(data)
		b.add("trie.build_s", time.Since(t).Seconds())
		return func() {
			st.stop()
			st, scan, index = nil, nil, nil
		}, nil
	}

	var ref [][]simsearch.Match
	return b.rounds(data, build, func(budget time.Duration) error {
		if ref == nil {
			// Tier 2: the scan against the oracle on four full-scale
			// queries; the index (checked against the scan on every pass,
			// and on city-direct) answers the whole pool once as reference.
			b.verify("scan (full scale)", scan, data, pool[:min(4, len(pool))])
			ref = make([][]simsearch.Match, len(pool))
			for i, q := range pool {
				ref[i] = index.Search(q)
			}
		}
		// The bare engines answer the head of the pool: distinct queries in
		// the stream's threshold mix, without its few hot entries weighing in.
		yard, yardRef := pool[:min(serveYard, len(pool))], ref[:min(serveYard, len(pool))]

		drv := newDriver(b, st.base, b.rec, pool, stream, ref)
		defer drv.close()
		drv.pass() // warm: the cache fills and the shard routers fit

		if b.traced {
			return tracedServe(b, budget/2, st, drv, data, capacity, pool, stream, ref, yard)
		}
		for _, e := range st.shards {
			freeze(e)
		}
		// Every pass replays the same stream against the same cache size, so
		// a request is a hit or a miss in nearly every pass alike and its
		// floor over the passes is its undisturbed latency. The rate is what
		// the slower client's floor cycles add up to. Floors are per round
		// (each round fits its own router policy); the best round stands.
		lat, cycle := newFloor(len(stream)), newFloor(len(stream))
		b.timedPasses(budget, func() {
			p := drv.pass()
			b.latencyStats(p.lat, p.wall)
			lat.observe(0, p.lat)
			cycle.observe(0, p.cycle)
			b.yardsticks(scan, index, yard, yardRef)
		})
		b.reportLatencyFloors(lat)
		var busiest float64 // ns the busier client needs for its share
		for c := 0; c < serveClients; c++ {
			var sum float64
			for i := c; i < len(cycle); i += serveClients {
				sum += cycle[i]
			}
			busiest = max(busiest, sum)
		}
		b.report("qps", float64(len(stream))*1e9/busiest)
		return nil
	})
}

// tracedServe is the traced run of city-serve: span-recorded passes paired
// with passes on a second, untraced stack, then the counts and the cells.
func tracedServe(b *bench, budget time.Duration, st *serveStack, drv *driver, data []string, capacity int,
	pool []simsearch.Query, stream []int, ref [][]simsearch.Match, yard []simsearch.Query) error {
	plain, err := startStack(nil, data, capacity)
	if err != nil {
		return err
	}
	defer plain.stop()
	plainDrv := newDriver(b, plain.base, nil, pool, stream, ref)
	defer plainDrv.close()
	plainDrv.pass()

	cacheBefore, seriesBefore := st.cached.Stats(), scrape(st.api)
	var requests, wallTotal float64
	b.timedPasses(budget, func() {
		untraced := plainDrv.pass()
		mark := b.rec.mark()
		rt := startRuntime()
		p := drv.pass()
		rt.stop(b, len(stream))
		b.latencyStats(p.lat, p.wall)
		b.add("trace.overhead_ratio", untraced.wall.Seconds()/p.wall.Seconds())
		b.add("httpapi.resp_bytes_per_req", float64(p.bytes)/float64(len(stream)))
		requests += float64(len(stream))
		wallTotal += p.wall.Seconds()
		serveSpans(b, b.rec.since(mark))
	})
	cacheAfter, seriesAfter := st.cached.Stats(), scrape(st.api)
	delta := func(name, label string) float64 {
		return series(seriesAfter, name, label) - series(seriesBefore, name, label)
	}
	b.add("cache.hit_ratio", float64(cacheAfter.Hits-cacheBefore.Hits)/requests)
	b.add("cache.evictions_per_kreq", 1e3*float64(cacheAfter.Evictions-cacheBefore.Evictions)/requests)
	b.add("cache.coalesced_per_kreq", 1e3*float64(cacheAfter.Coalesced-cacheBefore.Coalesced)/requests)
	b.add("httpapi.errors_per_kreq", 1e3*delta("simsearch_http_errors_total", "")/requests)
	b.add("exec.shard_busy_share", delta("simsearch_shard_busy_seconds_total", "")/(wallTotal*2))
	b.routerShares(seriesBefore, seriesAfter)

	// One client posting the request stream in batches of 32.
	batches := batchesOf(pool, stream, ref)
	b.add("httpapi.batch32_us_per_query", batchCell(b, drv.clients[0], batches)/32/1e3)
	fanoutCell(b, data, yard)
	return distribCell(b, data, batches)
}

// serveSpans folds one traced pass of city-serve into the per-layer times:
// each layer's self time is its span minus what its child spans cover. It
// also notes where the time of a request went, layer by layer.
func serveSpans(b *bench, spans []span) {
	self, parent := selfTimes(spans), hasChild(spans)
	by := map[string][]float64{}
	var total []float64 // client spans, whole
	for i, s := range spans {
		name := s.Name
		switch name {
		case "client":
			total = append(total, float64(s.dur()))
		case "cache":
			// A cache span with no exec span under it was a hit.
			name = "cache.hit"
			if parent[i] {
				name = "cache.miss"
			}
		}
		by[name] = append(by[name], float64(self[i]))
	}
	b.add("httpapi.net_us", median(by["client"])/1e3)
	b.add("httpapi.self_us", median(by["httpapi"])/1e3)
	b.add("cache.hit_us", median(by["cache.hit"])/1e3)
	b.add("cache.miss_overhead_us", median(by["cache.miss"])/1e3)
	b.add("exec.span_us", median(by["exec"])/1e3)

	// Means add up exactly (every request crosses client and httpapi, a
	// share of them the miss path); medians are what a typical request,
	// a hit, pays.
	n := float64(len(total))
	note := fmt.Sprintf("where the time goes, last traced pass (%d requests; client span p50 %.1f us, mean %.1f us):\n",
		len(total), median(total)/1e3, mean(total)/1e3)
	sum := 0.0
	for _, l := range []struct{ label, key string }{
		{"loopback TCP + net/http (client - handler)", "client"},
		{"httpapi self (decode, validate, encode)", "httpapi"},
		{"cache, hit", "cache.hit"},
		{"cache, miss overhead", "cache.miss"},
		{"exec: fan-out + shard engines + merge", "exec"},
	} {
		share := float64(len(by[l.key])) / n
		contrib := mean(by[l.key]) * share / 1e3
		sum += contrib
		note += fmt.Sprintf("  %-44s p50 %8.1f us  mean %8.1f us  on %5.1f%% of requests  = %7.1f us/request\n",
			l.label, median(by[l.key])/1e3, mean(by[l.key])/1e3, 100*share, contrib)
	}
	b.note = note + fmt.Sprintf("  %-44s %64.1f us/request\n", "sum of layers", sum)
}

// batch32 is 32 requests of the stream with their references.
type batch32 struct {
	qs  []simsearch.Query
	ref [][]simsearch.Match
}

// batchesOf cuts the request stream into batches of 32, leaving out queries
// that are not valid UTF-8: a JSON body cannot carry them (encoding/json
// replaces the offending bytes, so the server would answer another query),
// while GET /search percent-encodes and is exact.
func batchesOf(pool []simsearch.Query, stream []int, ref [][]simsearch.Match) []batch32 {
	var out []batch32
	var bt batch32
	for _, p := range stream {
		if !utf8.ValidString(pool[p].Text) {
			continue
		}
		bt.qs, bt.ref = append(bt.qs, pool[p]), append(bt.ref, ref[p])
		if len(bt.qs) == 32 {
			out = append(out, bt)
			bt = batch32{}
		}
	}
	return out
}

// batchCell posts batches in turn for cellDur from one client, checks the
// answers, and returns the mean ns per batch measured at the client.
func batchCell(b *bench, c *client, batches []batch32) float64 {
	var total time.Duration
	n := 0
	b.cell(1, func(round int) {
		bt := batches[round%len(batches)]
		got, took, err := c.batch(bt.qs)
		if err != nil {
			b.attempted.Add(1)
			b.fail("POST /search/batch: %v", err)
			return
		}
		total += took
		n++
		b.checkAll("batch", got, bt.ref)
	})
	return float64(total.Nanoseconds()) / float64(max(n, 1))
}

// fanoutCell measures what the executor adds to a query: the p50 of a
// 2-shard bit-parallel executor minus the p50 of one bit-parallel engine
// over the larger shard, same queries.
func fanoutCell(b *bench, data []string, qs []simsearch.Query) {
	sharded := simsearch.NewSharded(data, 2, simsearch.Options{Algorithm: simsearch.BitParallel})
	one := simsearch.NewBitParallel(data[len(data)/2:], 0)
	var shardedLat, oneLat []float64
	b.cell(1, func(int) {
		_, lat, _ := searchAll(sharded, qs)
		shardedLat = append(shardedLat, lat...)
		_, lat, _ = searchAll(one, qs)
		oneLat = append(oneLat, lat...)
	})
	b.add("exec.fanout_us", (median(shardedLat)-median(oneLat))/1e3)
}

// distribCell measures what the coordinator tier adds to a batch of 32: a
// coordinator over two single-shard servers, hedging off, against one
// 2-shard server answering the same batches, one client each.
func distribCell(b *bench, data []string, batches []batch32) error {
	opts := simsearch.Options{Algorithm: simsearch.BitParallel}
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	serve := func(h http.Handler) (string, error) {
		base, stop, err := listen(h)
		if err == nil {
			stops = append(stops, stop)
		}
		return base, err
	}
	var specs []distrib.ShardSpec
	for _, part := range distrib.Partition(len(data), 2) {
		shard := data[part[0]:part[1]]
		base, err := serve(httpapi.New(simsearch.New(shard, opts), shard))
		if err != nil {
			return err
		}
		specs = append(specs, distrib.ShardSpec{Replicas: []string{base}, Count: len(shard)})
	}
	coord, err := distrib.New(specs, distrib.Options{})
	if err != nil {
		return err
	}
	fleetBase, err := serve(coord)
	if err != nil {
		return err
	}
	singleBase, err := serve(httpapi.New(simsearch.NewSharded(data, 2, opts), data))
	if err != nil {
		return err
	}
	fleet, single := newClient(fleetBase, nil), newClient(singleBase, nil)
	defer fleet.close()
	defer single.close()
	b.add("distrib.batch32_overhead_us", (batchCell(b, fleet, batches)-batchCell(b, single, batches))/1e3)
	return nil
}
