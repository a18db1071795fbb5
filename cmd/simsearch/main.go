// Command simsearch answers string similarity queries over a dataset file
// with a chosen engine, printing matches and timing.
//
// Usage:
//
//	simsearch -data cities.txt -engine trie -k 2 Berlni Hambrg
//	simsearch -data cities.txt -engine scan -workers 8 -queries queries.txt -k 2
//	simsearch -data reads.fastq -engine trie -k 8 ACGT...
//	simsearch -data cities.txt -engine cascade -k 2 Berlni
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"simsearch"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "dataset file, one string per line (required)")
		engine    = flag.String("engine", "trie", "engine: scan, trie, cascade")
		workers   = flag.Int("workers", 0, "scan engine: parallel workers (0 = serial)")
		k         = flag.Int("k", 2, "edit-distance threshold")
		queryFile = flag.String("queries", "", "query file, one query per line (else positional args)")
		quiet     = flag.Bool("quiet", false, "suppress per-match output, print only counts and timing")
		verify    = flag.Bool("verify", false, "verify engine results against the reference implementation")
		topk      = flag.Int("topk", 0, "return only the N closest matches per query (0 = all within k)")
	)
	flag.Parse()

	if *dataPath == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	// FASTA/FASTQ files are recognized by extension; anything else is
	// one string per line.
	data, err := simsearch.LoadSequences(*dataPath)
	if err != nil {
		fatal(err)
	}

	var queryTexts []string
	if *queryFile != "" {
		queryTexts, err = simsearch.LoadStrings(*queryFile)
		if err != nil {
			fatal(err)
		}
	} else {
		queryTexts = flag.Args()
	}
	if len(queryTexts) == 0 {
		fatal(fmt.Errorf("no queries: pass positional arguments or -queries FILE"))
	}

	opts := simsearch.Options{Workers: *workers}
	switch *engine {
	case "scan":
		opts.Algorithm = simsearch.Scan
	case "trie":
		opts.Algorithm = simsearch.Trie
	case "cascade":
		opts.Algorithm = simsearch.Cascade
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}

	buildStart := time.Now()
	eng := simsearch.New(data, opts)
	buildTime := time.Since(buildStart)

	qs := make([]simsearch.Query, len(queryTexts))
	for i, t := range queryTexts {
		qs[i] = simsearch.Query{Text: t, K: *k}
	}

	if *verify {
		if err := simsearch.Verify(eng, data, qs); err != nil {
			fatal(err)
		}
		fmt.Println("verification against reference implementation: OK")
	}

	searchStart := time.Now()
	var results [][]simsearch.Match
	if *topk > 0 {
		results = make([][]simsearch.Match, len(qs))
		for i, q := range qs {
			results[i] = simsearch.TopK(eng, q.Text, *topk, q.K)
		}
	} else {
		results = simsearch.SearchBatch(eng, qs)
	}
	searchTime := time.Since(searchStart)

	total := 0
	for i, ms := range results {
		total += len(ms)
		if *quiet {
			continue
		}
		fmt.Printf("query %q (k=%d): %d matches\n", qs[i].Text, qs[i].K, len(ms))
		for _, m := range ms {
			fmt.Printf("  %6d  d=%d  %s\n", m.ID, m.Dist, data[m.ID])
		}
	}
	fmt.Printf("engine=%s data=%d queries=%d matches=%d build=%v search=%v\n",
		eng.Name(), len(data), len(qs), total, buildTime, searchTime)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simsearch:", err)
	os.Exit(1)
}
