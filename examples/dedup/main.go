// Dedup: near-duplicate detection in a gazetteer using the similarity
// self-join — the "Join" half of the EDBT/ICDT 2013 competition the paper
// was written for. Misspelled and variant entries are clustered and a
// canonical representative is chosen per cluster.
//
// Run with:
//
//	go run ./examples/dedup [-n 20000] [-k 1] [-dirty 0.15]
package main

import (
	"flag"
	"fmt"
	"time"

	"simsearch"
)

func main() {
	var (
		n     = flag.Int("n", 20000, "clean gazetteer size")
		k     = flag.Int("k", 1, "edits tolerated between duplicates")
		dirty = flag.Float64("dirty", 0.15, "fraction of corrupted duplicate entries to inject")
	)
	flag.Parse()

	clean := simsearch.GenerateCities(*n, 99)

	// Inject corrupted duplicates: real-world gazetteers accumulate entries
	// like "Magdegurg" next to "Magdeburg".
	data := append([]string(nil), clean...)
	injected := int(float64(*n) * *dirty)
	corrupted := simsearch.GenerateQueries(clean, injected, *k, 11)
	data = append(data, corrupted...)

	fmt.Printf("%d entries (%d injected near-duplicates), clustering at k=%d...\n",
		len(data), injected, *k)

	start := time.Now()
	groups := simsearch.Clusters(simsearch.NewCascade(data), data, *k, 4)
	elapsed := time.Since(start)

	dupGroups := 0
	dupEntries := 0
	for _, g := range groups {
		if len(g) > 1 {
			dupGroups++
			dupEntries += len(g) - 1
		}
	}
	fmt.Printf("found %d clusters, %d with duplicates (%d redundant entries) in %v\n",
		len(groups), dupGroups, dupEntries, elapsed)

	// Show a few duplicate clusters with their canonical pick (the shortest
	// member, ties broken by order — a simple, deterministic rule).
	fmt.Println("\nsample duplicate clusters:")
	shown := 0
	for _, g := range groups {
		if len(g) < 2 || shown >= 5 {
			continue
		}
		canon := g[0]
		for _, id := range g {
			if len(data[id]) < len(data[canon]) {
				canon = id
			}
		}
		fmt.Printf("  canonical %q:", data[canon])
		for _, id := range g {
			if id != canon {
				fmt.Printf(" %q", data[id])
			}
		}
		fmt.Println()
		shown++
	}
}
