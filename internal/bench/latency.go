package bench

import (
	"fmt"
	"io"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/metrics"
	"simsearch/internal/scan"
)

// measureLatencies answers every query serially, recording each query's
// wall-clock latency, and returns the distribution summary. The paper only
// reports batch totals; the distribution shows what they hide — on the mixed
// DNA workload the k=16 queries dominate (p99 ≫ p50).
func measureLatencies(s core.Searcher, qs []core.Query) metrics.Summary {
	samples := make([]time.Duration, len(qs))
	for i, q := range qs {
		start := time.Now()
		s.Search(q)
		samples[i] = time.Since(start)
	}
	return metrics.Summarize(samples)
}

// LatencyReport measures per-query latency distributions for the best
// paper-faithful engine of each family on a workload and writes a small
// report, split by threshold so the k-dependence is visible.
func LatencyReport(w io.Writer, wl Workload, engines []core.Searcher) {
	fmt.Fprintf(w, "Per-query latency on the %s workload (%d strings)\n",
		wl.Name, len(wl.Data))
	for _, eng := range engines {
		fmt.Fprintf(w, "  %s\n", eng.Name())
		fmt.Fprintf(w, "    all queries: %s\n", measureLatencies(eng, wl.Queries))
		for _, k := range wl.Ks {
			var sub []core.Query
			for _, q := range wl.Queries {
				if q.K == k {
					sub = append(sub, q)
				}
			}
			if len(sub) == 0 {
				continue
			}
			fmt.Fprintf(w, "    k=%-2d       : %s\n", k, measureLatencies(eng, sub))
		}
	}
}

// HistogramReport replays the workload's queries through the best serial
// scan configuration and the compressed trie, feeding every query's
// wall-clock latency into the same fixed-bucket metrics.Histogram the HTTP
// server exports at /metrics, and prints the cumulative bucket counts plus
// the comparison totals the scan performed. It ties the offline tables to
// the online serving-path metrics: a bucket bound here is a `le` label
// there.
func HistogramReport(w io.Writer, wl Workload) {
	var comps metrics.Counter
	engines := []core.Searcher{
		core.NewSequential(wl.Data,
			scan.WithStrategy(scan.SimpleTypes),
			scan.WithComparisonCounter(&comps)),
		core.NewTrie(wl.Data, true),
	}
	fmt.Fprintf(w, "Latency histograms on the %s workload (%d strings, %d queries)\n",
		wl.Name, len(wl.Data), len(wl.Queries))
	for _, eng := range engines {
		h := metrics.NewHistogram(nil)
		for _, q := range wl.Queries {
			start := time.Now()
			eng.Search(q)
			h.Observe(time.Since(start))
		}
		snap := h.Snapshot()
		fmt.Fprintf(w, "  %-22s %s\n", eng.Name(), snap)
		var cum uint64
		for i, b := range snap.Bounds {
			cum += snap.Counts[i]
			if snap.Counts[i] == 0 && cum != snap.Count {
				continue // skip empty leading/inner buckets, keep the last
			}
			fmt.Fprintf(w, "    le=%-8v %d\n", b, cum)
			if cum == snap.Count {
				break
			}
		}
		if over := snap.Counts[len(snap.Bounds)]; over > 0 {
			fmt.Fprintf(w, "    le=+Inf    %d\n", snap.Count)
		}
	}
	fmt.Fprintf(w, "  scan comparisons: %d total, %.0f per query\n\n",
		comps.Value(), float64(comps.Value())/float64(len(wl.Queries)))
}
