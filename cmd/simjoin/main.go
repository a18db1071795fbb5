// Command simjoin computes string similarity joins between two dataset
// files (or a self-join of one file) — the second problem of the EDBT/ICDT
// 2013 competition the paper was written for. The join is one search per
// left string against the cascade engine built over the right file (over the
// left file for -self).
//
// Usage:
//
//	simjoin -left a.txt -right b.txt -k 2            # R ⋈ S
//	simjoin -left a.txt -k 1 -self                   # self-join
//	simjoin -left a.txt -k 1 -self -cluster          # near-duplicate groups
//	simjoin -left a.txt -right b.txt -k 2 -workers 8
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"simsearch"
)

func main() {
	var (
		left    = flag.String("left", "", "left dataset file (required)")
		right   = flag.String("right", "", "right dataset file (required unless -self)")
		self    = flag.Bool("self", false, "self-join the left dataset")
		cluster = flag.Bool("cluster", false, "with -self: print near-duplicate clusters instead of pairs")
		k       = flag.Int("k", 1, "edit-distance threshold")
		workers = flag.Int("workers", 4, "parallel workers")
		quiet   = flag.Bool("quiet", false, "print only counts and timing")
	)
	flag.Parse()

	if *left == "" || (!*self && *right == "") {
		fmt.Fprintln(os.Stderr, "simjoin: need -left FILE and either -right FILE or -self")
		os.Exit(2)
	}
	l, err := simsearch.LoadStrings(*left)
	if err != nil {
		fatal(err)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	if *self {
		start := time.Now()
		eng := simsearch.NewCascade(l)
		if *cluster {
			groups := simsearch.Clusters(eng, l, *k, *workers)
			dups := 0
			for _, g := range groups {
				if len(g) > 1 {
					dups++
					if !*quiet {
						for i, id := range g {
							if i > 0 {
								fmt.Fprint(out, "\t")
							}
							fmt.Fprintf(out, "%s", l[id])
						}
						fmt.Fprintln(out)
					}
				}
			}
			fmt.Fprintf(out, "# %d strings, %d clusters (%d with duplicates) in %v\n",
				len(l), len(groups), dups, time.Since(start))
			return
		}
		pairs := simsearch.SelfJoin(eng, l, *k, *workers)
		if !*quiet {
			for _, p := range pairs {
				fmt.Fprintf(out, "%d\t%d\t%d\t%s\t%s\n", p.R, p.S, p.Dist, l[p.R], l[p.S])
			}
		}
		fmt.Fprintf(out, "# self-join: %d strings, %d pairs within k=%d in %v\n",
			len(l), len(pairs), *k, time.Since(start))
		return
	}

	r, err := simsearch.LoadStrings(*right)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	pairs := simsearch.Join(simsearch.NewCascade(r), l, *k, *workers)
	if !*quiet {
		for _, p := range pairs {
			fmt.Fprintf(out, "%d\t%d\t%d\t%s\t%s\n", p.R, p.S, p.Dist, l[p.R], r[p.S])
		}
	}
	fmt.Fprintf(out, "# join: %d x %d strings, %d pairs within k=%d in %v\n",
		len(l), len(r), len(pairs), *k, time.Since(start))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simjoin:", err)
	os.Exit(1)
}
