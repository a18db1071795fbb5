// Command paperbench regenerates every table and figure of the paper's
// evaluation section (§5, Tables II–IX and Figures 6–7, plus the Table I
// dataset overview).
//
// Usage:
//
//	paperbench                 # all experiments at the default scale (0.1)
//	paperbench -scale 1        # full paper scale (400k/750k strings)
//	paperbench -table 3        # only Table III
//	paperbench -figure 6       # only Figure 6
//	paperbench -workload city  # only city-name experiments
//	paperbench -cache          # + Zipf-skewed replay through the result cache
//	paperbench -bitparallel    # + the bit-parallel scan ablation (Table XV)
//	paperbench -cascade        # + the filter-cascade ablation (Table XVI)
//	paperbench -cascadecheck   # CI gate: cascade correctness + block-summary and signature-stage pruning on small datasets
//	paperbench -distrib        # distributed serving sweep: local shard fleet, hedging on/off, slow-shard fault
//	paperbench -json OUT.json  # + machine-readable records (implies -bitparallel unless -cascade/-distrib)
//
// Per §5.2, only the result-calculation time is reported; dataset generation
// and index construction are excluded from every cell. Cells whose direct
// measurement would exceed PAPER_BENCH_LIMIT (default 15 s) are extrapolated
// from measured throughput and printed with "≈", mirroring the paper's own
// "≈ half day" entries for the intractable DNA base scan.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"simsearch/internal/bench"
	"simsearch/internal/core"
	"simsearch/internal/scan"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0, "dataset scale; 1.0 = paper size (default from PAPER_SCALE or 0.1)")
		table    = flag.Int("table", 0, "run only this table number (1-9)")
		figure   = flag.Int("figure", 0, "run only this figure number (6 or 7)")
		workload = flag.String("workload", "", "restrict to one workload: city or dna")
		latency  = flag.Bool("latency", false, "also print per-query latency distributions (beyond the paper's totals)")
		hist     = flag.Bool("hist", false, "dump /metrics-style latency histograms and comparison counts after each table")
		extra    = flag.Bool("extra", false, "also run the extension experiments (join race, engine matrix)")
		shards   = flag.Bool("shards", false, "also run the sharded-executor sweep (Table XIV), the serving-path analogue of the paper's worker sweep")
		workers  = flag.Int("workers", 0, "pool workers for the shard sweep (default GOMAXPROCS)")
		bitp     = flag.Bool("bitparallel", false, "also run the bit-parallel scan ablation (Table XV: paper kernel vs banded vs query-compiled bit-parallel, serial and intra-query parallel)")
		casc     = flag.Bool("cascade", false, "also run the filter-cascade ablation (Table XVI: cascade vs bit-parallel scan at k=1..3, with and without its signature word)")
		cascChk  = flag.Bool("cascadecheck", false, "run only the cascade CI gate: tiny-dataset correctness vs the DP oracle plus the prune check on each signature kind")
		jsonPath = flag.String("json", "", "write machine-readable measurements (engine, dataset, k, ns/query, comparisons) to this file; implies -bitparallel unless -cascade is given")
		cacheRun = flag.Bool("cache", false, "also replay a Zipf-skewed query stream through the result cache (hit rate vs speedup)")
		cacheN   = flag.Int("cachequeries", 2000, "stream length for the -cache replay")
		cacheSz  = flag.Int("cachesize", 512, "cache capacity for the -cache replay")
		cacheS   = flag.Float64("cacheskew", 1.4, "Zipf exponent for the -cache replay (larger = more head-heavy)")
		distribF = flag.Bool("distrib", false, "run only the distributed serving sweep: a local shard fleet behind the scatter-gather coordinator, hedging on/off, one-slow-shard fault injection")
		dRate    = flag.Float64("distribrate", 0, "offered open-loop load in qps for -distrib (default 300)")
		dDur     = flag.Duration("distribdur", 0, "measured window per -distrib cell (default 2s)")
	)
	flag.Parse()

	if *cascChk {
		// CI gate, deliberately independent of the scaled workloads: tiny
		// fixed datasets keep it under a second.
		if err := bench.CascadeCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("cascade check ok: results identical to the DP scan, the block summaries and the signature stage pruned, on both alphabets")
		return
	}

	if *distribF {
		// Standalone like -cascadecheck: the serving sweep builds its own
		// dataset, so the paper workloads are never constructed.
		dcfg := bench.DefaultDistribConfig()
		if *dRate > 0 {
			dcfg.Rate = *dRate
		}
		if *dDur > 0 {
			dcfg.Duration = *dDur
		}
		fmt.Println("distributed serving sweep (open-loop Zipf load through the coordinator):")
		cells, err := bench.DistribSweep(os.Stdout, dcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: distrib sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		bench.DistribReport(os.Stdout, dcfg, cells)
		if *jsonPath != "" {
			report := bench.NewReport(1)
			report.Strings = dcfg.Strings
			report.Add(bench.DistribRecords(dcfg, cells)...)
			if err := report.WriteFile(*jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: writing %s: %v\n", *jsonPath, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d records to %s (GOMAXPROCS=%d)\n", len(report.Records), *jsonPath, report.GOMAXPROCS)
		}
		return
	}

	cfg := bench.DefaultConfig()
	if *scale > 0 {
		cfg.Scale = *scale
	}

	needCity := *workload == "" || *workload == "city"
	needDNA := *workload == "" || *workload == "dna"
	switch {
	case *table >= 2 && *table <= 5:
		needCity, needDNA = true, false
	case *table >= 6 && *table <= 9:
		needCity, needDNA = false, true
	case *figure == 6:
		needCity, needDNA = true, false
	case *figure == 7:
		needCity, needDNA = false, true
	case *table == 1:
		needCity, needDNA = true, true
	}

	var city, dna bench.Workload
	fmt.Printf("paperbench: scale=%.3g (paper scale = 1.0)\n", cfg.Scale)
	if needCity {
		start := time.Now()
		city = bench.CityWorkload(cfg)
		fmt.Printf("city workload: %d strings, %d queries built in %v\n",
			len(city.Data), len(city.Queries), time.Since(start))
	}
	if needDNA {
		start := time.Now()
		dna = bench.DNAWorkload(cfg)
		fmt.Printf("dna workload:  %d strings, %d queries built in %v\n",
			len(dna.Data), len(dna.Queries), time.Since(start))
	}
	fmt.Println()

	type experiment struct {
		id   string
		want bool
		run  func() *bench.Table
		wls  []*bench.Workload // workloads the experiment measured, for -hist
	}
	// histDump replays a table's workload through the serving-path histogram
	// report. The serial replay is capped at histQueries queries so the DNA
	// workload (where a single k=16 scan query is seconds) stays in budget.
	const histQueries = 200
	histDump := func(wls []*bench.Workload) {
		for _, wl := range wls {
			sub := *wl
			if len(sub.Queries) > histQueries {
				sub.Queries = sub.Queries[:histQueries]
			}
			if wl.Name == "dna" && len(sub.Queries) > 20 {
				sub.Queries = sub.Queries[:20]
			}
			bench.HistogramReport(os.Stdout, sub)
		}
	}
	only := func(t, f int) bool {
		if *table == 0 && *figure == 0 {
			return true
		}
		return (*table != 0 && *table == t) || (*figure != 0 && *figure == f)
	}
	experiments := []experiment{
		{"table1", only(1, 0) && needCity && needDNA, func() *bench.Table { return bench.TableI(city, dna) }, []*bench.Workload{&city, &dna}},
		{"table2", only(2, 0) && needCity, func() *bench.Table { return bench.TableII(city) }, []*bench.Workload{&city}},
		{"table3", only(3, 0) && needCity, func() *bench.Table { return bench.TableIII(city) }, []*bench.Workload{&city}},
		{"table4", only(4, 0) && needCity, func() *bench.Table { return bench.TableIV(city) }, []*bench.Workload{&city}},
		{"table5", only(5, 0) && needCity, func() *bench.Table { return bench.TableV(city) }, []*bench.Workload{&city}},
		{"table6", only(6, 0) && needDNA, func() *bench.Table { return bench.TableVI(dna) }, []*bench.Workload{&dna}},
		{"table7", only(7, 0) && needDNA, func() *bench.Table { return bench.TableVII(dna) }, []*bench.Workload{&dna}},
		{"table8", only(8, 0) && needDNA, func() *bench.Table { return bench.TableVIII(dna) }, []*bench.Workload{&dna}},
		{"table9", only(9, 0) && needDNA, func() *bench.Table { return bench.TableIX(dna) }, []*bench.Workload{&dna}},
		{"figure6", only(0, 6) && needCity, func() *bench.Table { return bench.Figure6(city) }, []*bench.Workload{&city}},
		{"figure7", only(0, 7) && needDNA, func() *bench.Table { return bench.Figure7(dna) }, []*bench.Workload{&dna}},
	}

	if *jsonPath != "" && !*casc {
		*bitp = true
	}

	ran := 0
	for _, e := range experiments {
		if !e.want {
			continue
		}
		start := time.Now()
		tab := e.run()
		tab.Render(os.Stdout)
		fmt.Printf("[%s completed in %v; best row: %s]\n\n", e.id, time.Since(start).Round(time.Millisecond), tab.Best())
		if *hist {
			histDump(e.wls)
		}
		ran++
	}
	if ran == 0 && !*extra && !*shards && !*cacheRun && !*bitp && !*casc {
		fmt.Fprintln(os.Stderr, "paperbench: no experiment selected (check -table/-figure/-workload)")
		os.Exit(1)
	}

	report := bench.NewReport(cfg.Scale)
	if *bitp {
		for _, w := range []struct {
			need bool
			wl   bench.Workload
		}{{needCity, city}, {needDNA, dna}} {
			if !w.need {
				continue
			}
			start := time.Now()
			tab := bench.TableXV(w.wl, *workers)
			tab.Render(os.Stdout)
			fmt.Printf("[tableXV %s completed in %v; best row: %s]\n\n",
				w.wl.Name, time.Since(start).Round(time.Millisecond), tab.Best())
			if *jsonPath != "" {
				report.Strings = len(w.wl.Data)
				report.Add(bench.BitParallelRecords(w.wl, *workers)...)
			}
		}
	}

	if *casc {
		for _, w := range []struct {
			need bool
			wl   bench.Workload
		}{{needCity, city}, {needDNA, dna}} {
			if !w.need {
				continue
			}
			start := time.Now()
			tab := bench.TableXVI(w.wl)
			tab.Render(os.Stdout)
			fmt.Printf("[tableXVI %s completed in %v; best row: %s]\n\n",
				w.wl.Name, time.Since(start).Round(time.Millisecond), tab.Best())
			if *jsonPath != "" {
				report.Strings = len(w.wl.Data)
				report.Add(bench.CascadeRecords(w.wl)...)
			}
		}
	}

	if *jsonPath != "" && (*bitp || *casc) {
		if err := report.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d records to %s (GOMAXPROCS=%d)\n\n", len(report.Records), *jsonPath, report.GOMAXPROCS)
	}

	if *extra {
		if needCity {
			start := time.Now()
			tab := bench.TableX(city, 1, 20000)
			tab.Render(os.Stdout)
			fmt.Printf("[tableX city completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
			start = time.Now()
			tab = bench.TableXI(city)
			tab.Render(os.Stdout)
			fmt.Printf("[tableXI city completed in %v; best row: %s]\n\n",
				time.Since(start).Round(time.Millisecond), tab.Best())
			start = time.Now()
			tab = bench.TableXII(city)
			tab.Render(os.Stdout)
			fmt.Printf("[tableXII city completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
			start = time.Now()
			tab = bench.TableXIII(city, 20)
			tab.Render(os.Stdout)
			fmt.Printf("[tableXIII city completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
		}
		if needDNA {
			start := time.Now()
			tab := bench.TableX(dna, 8, 4000)
			tab.Render(os.Stdout)
			fmt.Printf("[tableX dna completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
			start = time.Now()
			tab = bench.TableXI(dna)
			tab.Render(os.Stdout)
			fmt.Printf("[tableXI dna completed in %v; best row: %s]\n\n",
				time.Since(start).Round(time.Millisecond), tab.Best())
		}
	}

	if *shards {
		for _, w := range []struct {
			need bool
			wl   bench.Workload
		}{{needCity, city}, {needDNA, dna}} {
			if !w.need {
				continue
			}
			start := time.Now()
			tab := bench.TableXIV(w.wl, *workers)
			tab.Render(os.Stdout)
			fmt.Printf("[tableXIV %s completed in %v; best row: %s]\n\n",
				w.wl.Name, time.Since(start).Round(time.Millisecond), tab.Best())
		}
	}

	if *cacheRun {
		// Zipf-skewed stream replayed through the result cache: the serving
		// scenario the paper's offline tables cannot show. The engine is each
		// workload's winner (best scan for city, compressed trie for DNA).
		if needCity {
			eng := core.NewSequential(city.Data, scan.WithStrategy(scan.SimpleTypes), scan.WithBandedKernel())
			bench.CacheReport(os.Stdout, city, eng, *cacheN, *cacheSz, *cacheS)
		}
		if needDNA {
			n := *cacheN
			if n > 400 {
				n = 400 // DNA misses are orders slower; keep the replay in budget
			}
			bench.CacheReport(os.Stdout, dna, core.NewTrie(dna.Data, true), n, *cacheSz, *cacheS)
		}
	}

	if *latency {
		if needCity {
			bench.LatencyReport(os.Stdout, city, []core.Searcher{
				core.NewSequential(city.Data, scan.WithStrategy(scan.SimpleTypes)),
				core.NewTrie(city.Data, true),
			})
		}
		if needDNA {
			// Subsample the DNA queries so the serial latency sweep stays
			// in budget.
			sub := dna
			if len(sub.Queries) > 20 {
				sub.Queries = sub.Queries[:20]
			}
			bench.LatencyReport(os.Stdout, sub, []core.Searcher{
				core.NewTrie(dna.Data, true),
			})
		}
	}
}
