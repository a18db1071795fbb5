package main

import (
	"fmt"
	"time"

	"simsearch"
	"simsearch/internal/edit"
	"simsearch/internal/httpapi"
)

// directKind parametrises the two workloads that call Search directly on
// three engines built over one corpus.
type directKind struct {
	name   string
	gen    func(n int, seed int64) []string
	n      int   // corpus strings
	ks     []int // thresholds, round-robin over the query list
	perK   int   // queries per threshold and pass
	oracle []int // query indices checked against the DP oracle at full scale
	myersK int   // threshold of the kernel cells
	dna    bool  // the router holds the cascade; measure it directly too
}

var cityDirect = directKind{
	name: "city-direct", gen: simsearch.GenerateCities, n: 100000,
	ks: []int{0, 1, 2, 3}, perK: 300, oracle: []int{0, 1, 2, 3}, myersK: 2,
}

var dnaDirect = directKind{
	name: "dna-direct", gen: simsearch.GenerateDNAReads, n: 10000,
	ks: []int{0, 4, 8}, perK: 80, oracle: []int{1, 2}, myersK: 8, dna: true,
}

// sink keeps the compiler from removing a timed call whose result is unused.
var sink int

// roundRobin draws perK queries per threshold and interleaves them by
// threshold, so every prefix of the list has the same mix.
func roundRobin(data []string, ks []int, perK int, seed int64) []simsearch.Query {
	texts := make([][]string, len(ks))
	for i, k := range ks {
		texts[i] = simsearch.GenerateQueries(data, perK, k, seed+int64(k))
	}
	qs := make([]simsearch.Query, 0, perK*len(ks))
	for j := 0; j < perK; j++ {
		for i, k := range ks {
			qs = append(qs, simsearch.Query{Text: texts[i][j], K: k})
		}
	}
	return qs
}

// preflightSlice is the x0.02 head of a corpus on which the DP oracle is
// cheap enough to check every composition.
func preflightSlice(data []string) []string {
	return data[:min(len(data), max(len(data)/50, 200))]
}

// searchAll answers qs one by one, returning the answers, each query's
// latency in ns and the wall time of the loop.
func searchAll(eng simsearch.Searcher, qs []simsearch.Query) ([][]simsearch.Match, []float64, time.Duration) {
	got := make([][]simsearch.Match, len(qs))
	lat := make([]float64, len(qs))
	start := time.Now()
	for i, q := range qs {
		t := time.Now()
		got[i] = eng.Search(q)
		lat[i] = float64(time.Since(t).Nanoseconds())
	}
	return got, lat, time.Since(start)
}

func (b *bench) checkAll(what string, got, ref [][]simsearch.Match) {
	for i := range got {
		b.check(what, got[i], ref[i])
	}
}

func runDirect(b *bench, kind directKind) error {
	start := time.Now()
	data := kind.gen(b.scale(kind.n), b.cfg.seed)
	b.add("dataset.gen_s", time.Since(start).Seconds())
	b.sizes["corpus_strings"], b.sizes["corpus_bytes"] = len(data), corpusBytes(data)
	qs := roundRobin(data, kind.ks, kind.perK, b.cfg.seed)
	b.sizes["queries_per_pass"] = len(qs)

	// Tier 1: every engine against the DP oracle on a slice of the corpus.
	slice := preflightSlice(data)
	pre := roundRobin(slice, kind.ks, 64/len(kind.ks)+1, b.cfg.seed+100)[:64]
	preRouter := simsearch.NewRouter(slice)
	prime(preRouter)
	b.verify("router (slice)", preRouter, slice, pre)
	b.verify("scan (slice)", simsearch.NewBitParallel(slice, 0), slice, pre)
	b.verify("index (slice)", simsearch.NewIndex(slice), slice, pre)

	var router, scan, index simsearch.Searcher
	build := func() (func(), error) {
		t := time.Now()
		router = simsearch.NewRouter(data)
		prime(router)
		b.add("router.prime_s", time.Since(t).Seconds())
		scan = simsearch.NewBitParallel(data, 0)
		// The heap readings cost a collection each, so only the traced run,
		// which reports no setup_s, takes them.
		var before int64
		if b.traced {
			before = heapHeld()
		}
		t = time.Now()
		index = simsearch.NewIndex(data)
		b.add("trie.build_s", time.Since(t).Seconds())
		if b.traced {
			b.add("trie.mem_amp", float64(heapHeld()-before)/float64(corpusBytes(data)))
		}
		return func() { router, scan, index = nil, nil, nil }, nil
	}

	var ref [][]simsearch.Match
	return b.rounds(data, build, func(budget time.Duration) error {
		if ref == nil {
			// Tier 2: the scan against the oracle on a few full-scale
			// queries, then its answers are the reference for the rest.
			var oracle []simsearch.Query
			for _, i := range kind.oracle {
				oracle = append(oracle, qs[i])
			}
			b.verify("scan (full scale)", scan, data, oracle)
			ref, _, _ = searchAll(scan, qs)
			got, _, _ := searchAll(index, qs)
			b.checkAll("index (whole list)", got, ref)
		}
		// Two warm passes over the whole list, full match lists checked:
		// the router fits its cost model on them.
		for i := 0; i < 2; i++ {
			got, _, _ := searchAll(router, qs)
			b.checkAll("router (warm)", got, ref)
		}
		if b.traced {
			tracedDirect(b, kind, budget/2, data, qs, ref, router, scan, index)
			return nil
		}
		// A frozen router sends a query to the same engine every pass, so
		// the floors of this round describe this round's fitted policy; the
		// best round's is reported.
		freeze(router)
		fl := newFloor(len(qs))
		b.timedPasses(budget, func() {
			// The router answers the list three times per pass: its floors
			// are per round, so it needs the observations.
			for i := 0; i < 3; i++ {
				got, lat, wall := searchAll(router, qs)
				b.latencyStats(lat, wall)
				fl.observe(0, lat)
				b.checkAll("router", got, ref)
			}
			b.yardsticks(scan, index, qs, ref)
		})
		// One closed-loop caller: its rate is queries per second of floor.
		b.report("qps", 1e9/mean(fl))
		b.reportLatencyFloors(fl)
		return nil
	})
}

// tracedDirect is the traced run of a direct workload: span-wrapped engines
// over the whole query list, then the kernel and sweep cells.
func tracedDirect(b *bench, kind directKind, budget time.Duration, data []string, qs []simsearch.Query,
	ref [][]simsearch.Match, router, scan, index simsearch.Searcher) {
	type namedEngine struct {
		name string
		eng  simsearch.Searcher
	}
	engines := []namedEngine{
		{"router", wrap(b.rec, "router", router)}, {"scan", wrap(b.rec, "scan", scan)}, {"trie", wrap(b.rec, "trie", index)},
	}
	routerReg := httpapi.New(router, data) // never served: only its /metrics registry is read
	var cascadeReg *httpapi.Server
	if kind.dna {
		casc := simsearch.NewCascade(data)
		cascadeReg = httpapi.New(casc, data)
		engines = append(engines, namedEngine{"cascade", wrap(b.rec, "cascade", casc)})
	}

	// Bytes of the corpus at each string length: a query's sweep touches
	// the lengths within k of its own.
	var bytesAtLen []int
	for _, s := range data {
		for len(bytesAtLen) <= len(s) {
			bytesAtLen = append(bytesAtLen, 0)
		}
		bytesAtLen[len(s)] += len(s)
	}
	window := func(q simsearch.Query) (n int) {
		for l := max(len(q.Text)-q.K, 0); l <= len(q.Text)+q.K && l < len(bytesAtLen); l++ {
			n += bytesAtLen[l]
		}
		return n
	}

	before := scrape(routerReg)
	var cascBefore map[string]float64
	if cascadeReg != nil {
		cascBefore = scrape(cascadeReg)
	}
	b.timedPasses(budget, func() {
		// Each traced pass is paired with an untraced pass of the router
		// just before it, so the two see the same router state and drift.
		_, _, plainWall := searchAll(router, qs)

		mark := b.rec.mark()
		var routerWall time.Duration
		var routerLat []float64
		for _, e := range engines {
			rt := startRuntime()
			got, lat, wall := searchAll(e.eng, qs)
			if e.name == "router" {
				rt.stop(b, len(qs))
				routerWall, routerLat = wall, lat
			}
			b.checkAll(e.name, got, ref)
		}
		b.latencyStats(routerLat, routerWall)
		b.add("trace.overhead_ratio", plainWall.Seconds()/routerWall.Seconds())

		// One goroutine: the i-th span of an engine in this pass is qs[i].
		durs := map[string][]int64{}
		for _, s := range b.rec.since(mark) {
			durs[s.Name] = append(durs[s.Name], s.dur())
		}
		for _, layer := range []string{"scan", "trie", "cascade"} {
			sum, n := map[int]int64{}, map[int]int64{}
			for i, d := range durs[layer] {
				sum[qs[i].K] += d
				n[qs[i].K]++
			}
			for k, s := range sum {
				b.add(fmt.Sprintf("%s.us_per_query.k%d", layer, k), float64(s)/float64(n[k])/1e3)
			}
		}
		var windowBytes, scanNs, routerNs, bestNs int64
		best := make([]float64, len(qs))
		for i, q := range qs {
			windowBytes += int64(window(q))
			scanNs += durs["scan"][i]
			m := min(durs["scan"][i], durs["trie"][i])
			if c := durs["cascade"]; c != nil {
				m = min(m, c[i])
			}
			best[i] = float64(m)
			bestNs += m
			routerNs += durs["router"][i]
		}
		b.add("scan.sweep_gb_per_s", float64(windowBytes)/float64(scanNs))
		b.add("router.regret", float64(routerNs)/float64(bestNs))
		b.add("router.overhead_us", (median(routerLat)-median(best))/1e3)
	})

	b.routerShares(before, scrape(routerReg))
	if cascadeReg != nil {
		ca := scrape(cascadeReg)
		stage := func(s string) float64 {
			name, label := "simsearch_cascade_stage_survivors_total", `stage="`+s+`"`
			return series(ca, name, label) - series(cascBefore, name, label)
		}
		queries := series(ca, "simsearch_cascade_queries_total", "") - series(cascBefore, "simsearch_cascade_queries_total", "")
		b.add("cascade.freq_pass_ratio", ratio(stage("frequency"), stage("length")))
		b.add("cascade.qgram_pass_ratio", ratio(stage("qgram"), stage("frequency")))
		b.add("cascade.verify_per_query", ratio(stage("qgram"), queries))
	}

	kernelCells(b, kind, data, qs)
}

// kernelCells times the calls that have no request to hang a span on: the
// pattern compile, the two comparison kernels over every corpus string, and
// the memory-copy ceiling the sweep is compared with.
func kernelCells(b *bench, kind directKind, data []string, qs []simsearch.Query) {
	b.add("edit.compile_ns", b.cell(len(qs), func(int) {
		for _, q := range qs {
			sink += edit.CompileMyers(q.Text).Len()
		}
	}))

	var at []string // query texts at the kernel cells' threshold
	for _, q := range qs {
		if q.K == kind.myersK {
			at = append(at, q.Text)
		}
	}
	// One contiguous buffer, as the engines' arenas hold the corpus: 100,000
	// separate allocations would time the cache misses between them.
	packed := make([]byte, 0, corpusBytes(data))
	corpus := make([][]byte, len(data))
	for i, s := range data {
		packed = append(packed, s...)
		corpus[i] = packed[len(packed)-len(s) : len(packed) : len(packed)]
	}
	var scratch edit.MyersScratch
	b.add("edit.myers_ns_per_cmp", b.cell(len(data), func(round int) {
		p := edit.CompileMyers(at[round%len(at)])
		for _, s := range corpus {
			if d, ok := p.BoundedDistanceBytes(s, kind.myersK, &scratch); ok {
				sink += d
			}
		}
	}))
	b.add("edit.banded_ns_per_cmp", b.cell(len(data), func(round int) {
		q := at[round%len(at)]
		for _, s := range data {
			if simsearch.WithinK(q, s, kind.myersK) {
				sink++
			}
		}
	}))

	src, dst := make([]byte, corpusBytes(data)), make([]byte, corpusBytes(data))
	b.add("scan.copy_ceiling_gb_per_s", 1/b.cell(len(src), func(int) { sink += copy(dst, src) }))

	// Where a scan query's time goes: one compile, then the kernel over the
	// corpus (the cell's figure is an average over every string, the ones the
	// length filter turns away at once included, so it multiplies by all).
	cmps := float64(len(data))
	compile, kernel := median(b.samples["edit.compile_ns"])/1e3, cmps*median(b.samples["edit.myers_ns_per_cmp"])/1e3
	measured := median(b.samples[fmt.Sprintf("scan.us_per_query.k%d", kind.myersK)])
	b.note = fmt.Sprintf("where the time goes, one scan query at k=%d (mean over the %d such queries):\n"+
		"  %-44s %10.1f us\n  %-44s %10.1f us  (%.0f corpus strings x %.1f ns)\n"+
		"  %-44s %10.1f us\n  %-44s %10.1f us  (sum is %+.1f%% of it)\n",
		kind.myersK, len(at), "compile the pattern", compile, "kernel over the corpus", kernel, cmps,
		median(b.samples["edit.myers_ns_per_cmp"]), "sum", compile+kernel,
		"measured scan span", measured, 100*(compile+kernel-measured)/measured)
}
