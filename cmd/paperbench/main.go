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
//	paperbench -extra          # + the extension experiments (Tables X–XIII)
//	paperbench -shards         # + the sharded-executor sweep (Table XIV)
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
)

func main() {
	var (
		scale    = flag.Float64("scale", 0, "dataset scale; 1.0 = paper size (default from PAPER_SCALE or 0.1)")
		table    = flag.Int("table", 0, "run only this table number (1-9)")
		figure   = flag.Int("figure", 0, "run only this figure number (6 or 7)")
		workload = flag.String("workload", "", "restrict to one workload: city or dna")
		extra    = flag.Bool("extra", false, "also run the extension experiments (join over each engine, engine matrix)")
		shards   = flag.Bool("shards", false, "also run the sharded-executor sweep (Table XIV), the serving-path analogue of the paper's worker sweep")
		workers  = flag.Int("workers", 0, "pool workers for the shard sweep (default GOMAXPROCS)")
	)
	flag.Parse()

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
	}
	only := func(t, f int) bool {
		if *table == 0 && *figure == 0 {
			return true
		}
		return (*table != 0 && *table == t) || (*figure != 0 && *figure == f)
	}
	experiments := []experiment{
		{"table1", only(1, 0) && needCity && needDNA, func() *bench.Table { return bench.TableI(city, dna) }},
		{"table2", only(2, 0) && needCity, func() *bench.Table { return bench.TableII(city) }},
		{"table3", only(3, 0) && needCity, func() *bench.Table { return bench.TableIII(city) }},
		{"table4", only(4, 0) && needCity, func() *bench.Table { return bench.TableIV(city) }},
		{"table5", only(5, 0) && needCity, func() *bench.Table { return bench.TableV(city) }},
		{"table6", only(6, 0) && needDNA, func() *bench.Table { return bench.TableVI(dna) }},
		{"table7", only(7, 0) && needDNA, func() *bench.Table { return bench.TableVII(dna) }},
		{"table8", only(8, 0) && needDNA, func() *bench.Table { return bench.TableVIII(dna) }},
		{"table9", only(9, 0) && needDNA, func() *bench.Table { return bench.TableIX(dna) }},
		{"figure6", only(0, 6) && needCity, func() *bench.Table { return bench.Figure6(city) }},
		{"figure7", only(0, 7) && needDNA, func() *bench.Table { return bench.Figure7(dna) }},
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
		ran++
	}
	if ran == 0 && !*extra && !*shards {
		fmt.Fprintln(os.Stderr, "paperbench: no experiment selected (check -table/-figure/-workload)")
		os.Exit(1)
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
}
