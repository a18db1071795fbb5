package bench

import (
	"fmt"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/metrics"
	"simsearch/internal/scan"
)

// rung is one row of an ablation table: a short stable slug for JSON
// records, a table label, and how to build it with (or, given nil, without)
// a kernel-call counter.
type rung struct {
	slug  string
	label string
	build func(data []string, comps *metrics.Counter) core.Searcher
}

// scanRung builds a scan.Engine rung from its options.
func scanRung(opts ...scan.Option) func([]string, *metrics.Counter) core.Searcher {
	return func(data []string, comps *metrics.Counter) core.Searcher {
		all := append([]scan.Option{}, opts...)
		if comps != nil {
			all = append(all, scan.WithComparisonCounter(comps))
		}
		return core.NewSequential(data, all...)
	}
}

// cascadeRung builds a core.Cascade rung from its options.
func cascadeRung(opts ...core.CascadeOption) func([]string, *metrics.Counter) core.Searcher {
	return func(data []string, comps *metrics.Counter) core.Searcher {
		all := append([]core.CascadeOption{}, opts...)
		if comps != nil {
			all = append(all, core.WithComparisonCounter(comps))
		}
		return core.NewCascade(data, all...)
	}
}

// bitParallelRungs builds the ablation ladder: the paper's best serial rung,
// the banded variant this library defaults to, the query-compiled kernel
// over the length window with no words in front of it (the cascade with its
// words off), and the cascade, whose words decide which slots reach that
// kernel.
func bitParallelRungs() []rung {
	return []rung{
		{"simple-types", "1) simple-types (paper §3.4 kernel)",
			scanRung(scan.WithStrategy(scan.SimpleTypes))},
		{"simple-types+banded", "2) simple-types + banded kernel",
			scanRung(scan.WithStrategy(scan.SimpleTypes), scan.WithBandedKernel())},
		{"cascade-nofreq", "3) query-compiled kernel, no words",
			cascadeRung(core.WithoutFrequency())},
		{"cascade", "4) cascade (+ words)", cascadeRung()},
	}
}

// TableXV is the bit-parallel ablation: how far past the paper's §3.4 ladder
// the query-compiled kernel, and the words in front of it, push the
// sequential solution. Layout matches the other appendix tables (batch-size
// columns, one engine per row).
func TableXV(w Workload) *Table {
	return ablationTable(fmt.Sprintf("Table XV. Bit-parallel scan ablation on the %s data set", w.Name), w, bitParallelRungs())
}

// BitParallelRecords measures every ablation rung per threshold k and returns
// machine-readable records (ns/query and kernel comparisons) for the JSON
// report. Speedup is relative to the first rung (the paper's §3.4 kernel) at
// the same k.
func BitParallelRecords(w Workload) []Record {
	return ablationRecords("bitparallel-ablation", w, bitParallelRungs(), "simple-types")
}

// ablationTable times every rung over w's batch sizes, one row each.
func ablationTable(title string, w Workload, rungs []rung) *Table {
	t := newTable(title, w.Counts)
	for _, r := range rungs {
		eng := r.build(w.Data, nil)
		t.AddRow(r.label, series(w, func(qs []core.Query) time.Duration {
			return measureBatch(eng, qs, nil)
		}))
	}
	return t
}

// ablationRecords measures every rung per threshold of w and returns one
// record per (rung, k): ns per query, kernel calls, and on a cascade the
// per-stage survivor funnel, so prune rates are diffable across PRs. Speedup
// is relative to the rung with slug baseline at the same k.
func ablationRecords(experiment string, w Workload, rungs []rung, baseline string) []Record {
	var recs []Record
	for _, r := range rungs {
		var comps metrics.Counter
		eng := r.build(w.Data, &comps)
		cc, _ := eng.(*core.Cascade)
		for _, k := range w.Ks {
			var sub []core.Query
			for _, q := range w.Queries {
				if q.K == k {
					sub = append(sub, q)
				}
			}
			if len(sub) == 0 {
				continue
			}
			var before core.CascadeStats
			if cc != nil {
				before = cc.Stats()
			}
			compsBefore := comps.Value()
			start := time.Now()
			for _, q := range sub {
				eng.Search(q)
			}
			elapsed := time.Since(start)
			rec := Record{
				Experiment:  experiment,
				Engine:      r.slug,
				Dataset:     w.Name,
				K:           k,
				Queries:     len(sub),
				NsPerQuery:  elapsed.Nanoseconds() / int64(len(sub)),
				Comparisons: comps.Value() - compsBefore,
			}
			if cc != nil {
				after := cc.Stats()
				rec.Stages = &StageCounts{
					Candidates: after.Candidates - before.Candidates,
					Swept:      after.Swept - before.Swept,
					Passed:     after.Passed - before.Passed,
					Survivors:  after.Survivors - before.Survivors,
					Matches:    after.Matches - before.Matches,
				}
			}
			recs = append(recs, rec)
		}
	}
	base := map[int]int64{} // k -> ns/query of the baseline rung
	for _, rec := range recs {
		if rec.Engine == baseline {
			base[rec.K] = rec.NsPerQuery
		}
	}
	for i, rec := range recs {
		if b := base[rec.K]; rec.Engine != baseline && b > 0 && rec.NsPerQuery > 0 {
			recs[i].Speedup = float64(b) / float64(rec.NsPerQuery)
		}
	}
	return recs
}
