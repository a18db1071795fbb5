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
	for _, p := range simsearch.SelfJoin(data, 1, simsearch.JoinPass, 1) {
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
	for _, g := range simsearch.Clusters(data, 1, 1) {
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
