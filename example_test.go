package simsearch_test

import (
	"fmt"

	"simsearch"
)

func ExampleNewIndex() {
	cities := []string{"Berlin", "Bern", "Bonn", "Munich", "Ulm"}
	index := simsearch.NewIndex(cities)
	for _, m := range index.Search(simsearch.Query{Text: "Berlni", K: 2}) {
		fmt.Println(cities[m.ID], m.Dist)
	}
	// Output:
	// Berlin 2
	// Bern 2
}

func ExampleDistance() {
	// The paper's §2.2 worked example.
	fmt.Println(simsearch.Distance("AGGCGT", "AGAGT"))
	// Output: 2
}

func ExampleSelfJoin() {
	data := []string{"Berlin", "Berlim", "Tokyo"}
	for _, p := range simsearch.SelfJoin(simsearch.NewCascade(data), data, 1, 1) {
		fmt.Printf("%s ~ %s (%d)\n", data[p.R], data[p.S], p.Dist)
	}
	// Output: Berlin ~ Berlim (1)
}

func ExampleTopK() {
	cities := []string{"Berlin", "Bern", "Bremen", "Bonn"}
	eng := simsearch.NewScan(cities)
	for _, m := range simsearch.TopK(eng, "Berln", 2, 2) {
		fmt.Println(cities[m.ID], m.Dist)
	}
	// Output:
	// Berlin 1
	// Bern 1
}

func ExampleClusters() {
	data := []string{"Ulm", "Ulmm", "Köln"}
	for _, g := range simsearch.Clusters(simsearch.NewCascade(data), data, 1, 1) {
		for i, id := range g {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Print(data[id])
		}
		fmt.Println()
	}
	// Output:
	// Ulm Ulmm
	// Köln
}

func ExampleVerify() {
	data := []string{"Berlin", "Bern"}
	eng := simsearch.NewIndex(data)
	err := simsearch.Verify(eng, data, []simsearch.Query{{Text: "Berlin", K: 1}})
	fmt.Println(err)
	// Output: <nil>
}

func ExampleNearest() {
	cities := []string{"Berlin", "Bern", "Bremen", "Bonn"}
	eng := simsearch.NewCascade(cities)
	if m, ok := simsearch.Nearest(eng, "Bremne", 2); ok {
		fmt.Println(cities[m.ID], m.Dist)
	}
	// Output: Bremen 2
}

func ExampleHammingSearch() {
	reads := []string{"ACGT", "ACGA", "ACG", "AGGA"}
	eng := simsearch.NewCascade(reads)
	for _, m := range simsearch.HammingSearch(eng, reads, "ACGT", 1) {
		fmt.Println(reads[m.ID], m.Dist)
	}
	// Output:
	// ACGT 0
	// ACGA 1
}

func ExampleHammingDistance() {
	fmt.Println(simsearch.HammingDistance("ACGT", "AGGT"), simsearch.HammingDistance("ACG", "ACGT"))
	// Output: 1 -1
}

func ExampleGenerateZipfQueries() {
	cities := simsearch.GenerateCities(1000, 1)
	queries := simsearch.GenerateZipfQueries(cities, 5, 1, 1.4, 2)
	fmt.Println(len(queries))
	// Output: 5
}
