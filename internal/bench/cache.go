package bench

import (
	"fmt"
	"io"
	"time"

	"simsearch/internal/cache"
	"simsearch/internal/core"
	"simsearch/internal/dataset"
)

// cacheReplayResult is one cache-replay measurement: the same Zipf-skewed
// query stream answered by the bare engine and by its cached decorator.
type cacheReplayResult struct {
	Engine   string
	Queries  int
	Capacity int
	Uncached time.Duration // total bare-engine time
	Cached   time.Duration // total cached-engine time
	HitMean  time.Duration // mean latency of hit-path queries
	MissMean time.Duration // mean latency of miss-path queries
	Stats    cache.Stats
}

// Speedup returns the uncached/cached total-time ratio.
func (r cacheReplayResult) Speedup() float64 {
	if r.Cached == 0 {
		return 0
	}
	return float64(r.Uncached) / float64(r.Cached)
}

// cacheReplay replays queries serially against eng twice — bare, then behind
// a capacity-entry result cache — timing each query. Hit-path and miss-path
// latencies are separated by watching the cache's hit counter move, so the
// report shows directly how far a cache hit is below a full engine search.
// The replay asserts byte-identical results between the two passes and
// panics on divergence (the §3.1 protocol, applied to the cache).
func cacheReplay(eng core.Searcher, queries []core.Query, capacity int) cacheReplayResult {
	r := cacheReplayResult{Engine: eng.Name(), Queries: len(queries), Capacity: capacity}

	uncached := make([][]core.Match, len(queries))
	start := time.Now()
	for i, q := range queries {
		uncached[i] = eng.Search(q)
	}
	r.Uncached = time.Since(start)

	c := cache.New(eng, cache.Options{Capacity: capacity})
	var hitTotal, missTotal time.Duration
	var hitN, missN int
	start = time.Now()
	for i, q := range queries {
		before := c.Stats().Hits
		qStart := time.Now()
		ms := c.Search(q)
		took := time.Since(qStart)
		if c.Stats().Hits > before {
			hitTotal += took
			hitN++
		} else {
			missTotal += took
			missN++
		}
		if !core.Equal(ms, uncached[i]) {
			panic(fmt.Sprintf("bench: cached %s diverges from uncached on %+v", eng.Name(), q))
		}
	}
	r.Cached = time.Since(start)
	if hitN > 0 {
		r.HitMean = hitTotal / time.Duration(hitN)
	}
	if missN > 0 {
		r.MissMean = missTotal / time.Duration(missN)
	}
	r.Stats = c.Stats()
	return r
}

// zipfQueries builds an n-query Zipf-skewed stream over the workload's data
// with its own thresholds, modelling the skewed logs a served deployment
// sees. The heaviest threshold is dropped for streams over slow workloads
// (DNA k=16 is seconds per miss); the cache's value shows at any k.
func zipfQueries(wl Workload, n int, s float64, seed int64) []core.Query {
	ks := wl.Ks
	if len(ks) > 1 && wl.Name == "dna" {
		ks = ks[:len(ks)-1]
	}
	// maxEdits 1: roughly half the stream repeats its base string verbatim,
	// like the exact retries and re-issues that dominate real query logs.
	texts := dataset.QueriesZipf(wl.Data, n, 1, s, seed)
	qs := make([]core.Query, n)
	for i, t := range texts {
		qs[i] = core.Query{Text: t, K: ks[i%len(ks)]}
	}
	return qs
}

// CacheReport runs the Zipf replay for a workload and renders hit rate,
// hit-path vs miss-path latency, and end-to-end speedup.
func CacheReport(w io.Writer, wl Workload, eng core.Searcher, n, capacity int, s float64) {
	qs := zipfQueries(wl, n, s, 20130325)
	res := cacheReplay(eng, qs, capacity)
	fmt.Fprintf(w, "cache replay (%s): engine=%s queries=%d zipf_s=%.2f capacity=%d\n",
		wl.Name, res.Engine, res.Queries, s, capacity)
	fmt.Fprintf(w, "  uncached: total=%v mean=%v\n",
		res.Uncached.Round(time.Microsecond),
		(res.Uncached / time.Duration(max(res.Queries, 1))).Round(time.Microsecond))
	fmt.Fprintf(w, "  cached:   total=%v hits=%d misses=%d coalesced=%d evictions=%d hit_rate=%.1f%% speedup=%.2f×\n",
		res.Cached.Round(time.Microsecond), res.Stats.Hits, res.Stats.Misses,
		res.Stats.Coalesced, res.Stats.Evictions, 100*res.Stats.HitRate(), res.Speedup())
	fmt.Fprintf(w, "  hit path: mean=%v   miss path: mean=%v\n\n",
		res.HitMean.Round(time.Microsecond), res.MissMean.Round(time.Microsecond))
}
