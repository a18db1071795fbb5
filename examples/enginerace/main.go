// Enginerace: run every engine in the library over the same workload and
// print a ranking — the quickest way to see, for YOUR data, whether the
// paper's conclusion (scan wins on short strings, index wins on long ones)
// holds.
//
// Run with:
//
//	go run ./examples/enginerace -kind city
//	go run ./examples/enginerace -kind dna -n 20000 -queries 10
//	go run ./examples/enginerace -data mystrings.txt -k 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"simsearch"
)

func main() {
	var (
		kind    = flag.String("kind", "city", "synthetic dataset kind: city or dna")
		n       = flag.Int("n", 20000, "synthetic dataset size")
		path    = flag.String("data", "", "use this dataset file instead of synthetic data")
		queries = flag.Int("queries", 50, "number of queries")
		k       = flag.Int("k", -1, "edit threshold (default: 2 for city, 8 for dna)")
	)
	flag.Parse()

	var data []string
	var err error
	switch {
	case *path != "":
		data, err = simsearch.LoadStrings(*path)
		if err != nil {
			log.Fatal(err)
		}
	case *kind == "city":
		data = simsearch.GenerateCities(*n, 1)
	case *kind == "dna":
		data = simsearch.GenerateDNAReads(*n, 1)
	default:
		fmt.Fprintln(os.Stderr, "unknown -kind")
		os.Exit(1)
	}
	threshold := *k
	if threshold < 0 {
		threshold = 2
		if *kind == "dna" {
			threshold = 8
		}
	}

	texts := simsearch.GenerateQueries(data, *queries, threshold, 3)
	qs := make([]simsearch.Query, len(texts))
	for i, t := range texts {
		qs[i] = simsearch.Query{Text: t, K: threshold}
	}

	type entry struct {
		eng   simsearch.Searcher
		build time.Duration
	}
	build := func(f func() simsearch.Searcher) entry {
		start := time.Now()
		e := f()
		return entry{eng: e, build: time.Since(start)}
	}
	engines := []entry{
		build(func() simsearch.Searcher { return simsearch.NewScan(data) }),
		build(func() simsearch.Searcher { return simsearch.NewParallelScan(data, 8) }),
		build(func() simsearch.Searcher { return simsearch.NewIndex(data) }),
		build(func() simsearch.Searcher { return simsearch.NewCascade(data) }),
	}

	type result struct {
		name          string
		build, search time.Duration
		matches       int
	}
	var results []result
	var want [][]simsearch.Match
	for i, e := range engines {
		start := time.Now()
		batch := simsearch.SearchBatch(e.eng, qs)
		elapsed := time.Since(start)
		total := 0
		for _, ms := range batch {
			total += len(ms)
		}
		if i == 0 {
			want = batch
		} else {
			for j := range qs {
				if len(batch[j]) != len(want[j]) {
					log.Fatalf("%s disagrees with %s on query %d", e.eng.Name(), engines[0].eng.Name(), j)
				}
			}
		}
		results = append(results, result{e.eng.Name(), e.build, elapsed, total})
	}

	sort.Slice(results, func(i, j int) bool { return results[i].search < results[j].search })
	fmt.Printf("\n%d strings, %d queries, k=%d — all engines agreed (%d matches)\n\n",
		len(data), len(qs), threshold, results[0].matches)
	fmt.Printf("%-28s %14s %14s\n", "engine", "build", "search")
	for _, r := range results {
		fmt.Printf("%-28s %14v %14v\n", r.name, r.build.Round(time.Microsecond), r.search.Round(time.Microsecond))
	}
}
