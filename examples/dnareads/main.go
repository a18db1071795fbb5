// Dnareads: the paper's non-natural-language scenario — finding genome reads
// similar to a probe sequence, the regime where the prefix-tree index beats
// the sequential scan (the paper's Figure 7).
//
// Run with:
//
//	go run ./examples/dnareads [-n 75000] [-queries 20]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"simsearch"
)

func main() {
	var (
		n       = flag.Int("n", 75000, "number of reads")
		queries = flag.Int("queries", 20, "number of probe sequences")
	)
	flag.Parse()

	fmt.Printf("sampling %d reads (~100 bp) from a synthetic genome...\n", *n)
	reads := simsearch.GenerateDNAReads(*n, 1)

	// Probes: reads with sequencing-error-like perturbations.
	probes := simsearch.GenerateQueries(reads, *queries, 8, 2)
	var qs []simsearch.Query
	for _, p := range probes {
		qs = append(qs, simsearch.Query{Text: p, K: 16})
	}

	index := simsearch.NewIndex(reads)
	scanEng := simsearch.NewParallelScan(reads, 8)

	start := time.Now()
	indexResults := simsearch.SearchBatch(index, qs)
	indexTime := time.Since(start)

	start = time.Now()
	scanResults := simsearch.SearchBatch(scanEng, qs)
	scanTime := time.Since(start)

	total := 0
	for i := range qs {
		if len(indexResults[i]) != len(scanResults[i]) {
			log.Fatalf("engines disagree on probe %d", i)
		}
		total += len(indexResults[i])
	}
	fmt.Printf("\n%d probes at k=16, %d similar reads found\n", len(qs), total)
	fmt.Printf("  %-28s %v\n", index.Name(), indexTime)
	fmt.Printf("  %-28s %v\n", scanEng.Name(), scanTime)

	// A resequencing pipeline would group overlapping reads; show the match
	// count distribution instead.
	hist := map[int]int{}
	for _, ms := range indexResults {
		bucket := len(ms)
		if bucket > 5 {
			bucket = 5
		}
		hist[bucket]++
	}
	fmt.Println("\nmatches per probe:")
	for b := 0; b <= 5; b++ {
		if hist[b] == 0 {
			continue
		}
		label := fmt.Sprintf("%d", b)
		if b == 5 {
			label = "5+"
		}
		fmt.Printf("  %-3s %d probes\n", label, hist[b])
	}
}
