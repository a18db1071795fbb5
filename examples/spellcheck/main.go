// Spellcheck: an interactive "did you mean?" corrector over a gazetteer,
// showing the TopK nearest-neighbour API.
//
// Run with:
//
//	echo -e "Berlni\nHamburk\nMagdeburk" | go run ./examples/spellcheck
//	go run ./examples/spellcheck -n 40000 Berlni Hambrug
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"simsearch"
)

func main() {
	var (
		n       = flag.Int("n", 40000, "dictionary size (synthetic gazetteer)")
		maxDist = flag.Int("maxdist", 3, "largest correction distance")
		topK    = flag.Int("top", 3, "suggestions per word")
	)
	flag.Parse()

	dict := simsearch.GenerateCities(*n, 42)
	index := simsearch.NewIndex(dict)

	check := func(word string) {
		suggestions := simsearch.TopK(index, word, *topK, *maxDist)
		if len(suggestions) == 0 {
			fmt.Printf("%-24s no suggestion within %d edits\n", word, *maxDist)
			return
		}
		if suggestions[0].Dist == 0 {
			fmt.Printf("%-24s ✓ exact\n", word)
			return
		}
		fmt.Printf("%-24s did you mean:\n", word)
		for _, s := range suggestions {
			fmt.Printf("    %-24s (%d edit(s))\n", dict[s.ID], s.Dist)
		}
	}

	if flag.NArg() > 0 {
		for _, w := range flag.Args() {
			check(w)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if w := sc.Text(); w != "" {
			check(w)
		}
	}
}
