package bench

import (
	"fmt"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/metrics"
)

// cascadeKs are the thresholds for the cascade ablation. The filters earn
// their keep at small k — exactly the regime where the paper's index wins
// (§5.4) — so the cascade is measured at k = 1..3 rather than the DNA
// workload's 0/4/8/16 ladder.
var cascadeKs = []int{1, 2, 3}

// cascadeWorkload re-thresholds w's queries to cascadeKs, cycling like
// buildQueries does, so every batch prefix exercises every threshold.
func cascadeWorkload(w Workload) Workload {
	qs := make([]core.Query, len(w.Queries))
	for i, q := range w.Queries {
		qs[i] = core.Query{Text: q.Text, K: cascadeKs[i%len(cascadeKs)]}
	}
	out := w
	out.Queries = qs
	out.Ks = cascadeKs
	return out
}

// cascadeRungs are the cascade ablation's rows: the full cascade and the
// cascade with its words off, which is the query-compiled kernel over the
// length window and the baseline the speedups are read against.
func cascadeRungs() []rung {
	return []rung{
		{"cascade", "1) cascade (length+signature+verify)", cascadeRung()},
		{"cascade-nofreq", "2) cascade without the signature word", cascadeRung(core.WithoutFrequency())},
	}
}

// TableXVI is the filter-cascade ablation: the §6 future-work cascade
// against the same sweep with its signature words switched off, at the
// small thresholds where an index traditionally wins.
func TableXVI(w Workload) *Table {
	cw := cascadeWorkload(w)
	return ablationTable(fmt.Sprintf("Table XVI. Filter cascade on the %s data set (k = 1..3)", w.Name), cw, cascadeRungs())
}

// CascadeRecords measures every ablation rung per threshold and returns
// machine-readable records for the JSON report. Speedup is relative to the
// cascade without its words at the same k; cascade rows carry the per-stage
// survivor funnel so prune rates are diffable across PRs.
func CascadeRecords(w Workload) []Record {
	return ablationRecords("cascade-ablation", cascadeWorkload(w), cascadeRungs(), "cascade-nofreq")
}

// CascadeCheck is the CI smoke gate: on a tiny dataset of each alphabet —
// one per kind of signature word — it verifies the full cascade (a) returns
// exactly the DP scan's results and (b) actually prunes, and that the
// ablation, which switches the words off, loses no slot to the block
// summaries either. A filter regression that silently stops pruning — the
// cascade would stay correct but degrade to verify-only speed — fails here
// instead of rotting unnoticed. The block summaries get a corpus of their
// own: they pay by the order inside a length bucket, and a bucket of a
// hundred names has little; on 20,000 city names at k = 1 they must leave
// the sweep less than half of the window.
func CascadeCheck() error {
	cities := dataset.Cities(20000, 20130322)
	eng := core.NewCascade(cities)
	for _, q := range dataset.Queries(cities, 100, 1, 20130325) {
		eng.Search(core.Query{Text: q, K: 1})
	}
	if st := eng.Stats(); st.Swept == 0 || 2*st.Swept >= st.Candidates {
		return fmt.Errorf("cascade check blocks: the summaries let the sweep into %d of %d window slots at k=1, want fewer than half",
			st.Swept, st.Candidates)
	}

	for _, tc := range []struct {
		name string
		data []string
	}{
		{"dna", dataset.DNAReads(1500, 20130323)},
		{"city", dataset.Cities(1500, 20130322)},
	} {
		qs := dataset.Queries(tc.data, 30, 3, 20130324)
		oracle := core.NewSequential(tc.data)
		var comps metrics.Counter
		eng := core.NewCascade(tc.data, core.WithComparisonCounter(&comps))
		bare := core.NewCascade(tc.data, core.WithoutFrequency())
		for i, text := range qs {
			q := core.Query{Text: text, K: cascadeKs[i%len(cascadeKs)]}
			want := oracle.Search(q)
			got := eng.Search(q)
			bare.Search(q)
			if len(got) != len(want) {
				return fmt.Errorf("cascade check %s: %d results, oracle %d (q=%q k=%d)",
					tc.name, len(got), len(want), q.Text, q.K)
			}
			for j := range want {
				if got[j] != want[j] {
					return fmt.Errorf("cascade check %s: result %d = %+v, oracle %+v (q=%q k=%d)",
						tc.name, j, got[j], want[j], q.Text, q.K)
				}
			}
		}
		st := eng.Stats()
		if st.Candidates == 0 {
			return fmt.Errorf("cascade check %s: length bucket admitted no candidates", tc.name)
		}
		if st.Swept > st.Candidates || st.Passed > st.Swept {
			return fmt.Errorf("cascade check %s: the funnel widens: %d window slots, %d swept, %d past the first word",
				tc.name, st.Candidates, st.Swept, st.Passed)
		}
		if bs := bare.Stats(); bs.Candidates != st.Candidates || bs.Swept != bs.Candidates || bs.Survivors != bs.Candidates {
			return fmt.Errorf("cascade check %s: without the signature stage %d of %d window slots were swept and %d verified, want all",
				tc.name, bs.Swept, bs.Candidates, bs.Survivors)
		}
		if st.Survivors >= st.Candidates {
			return fmt.Errorf("cascade check %s: signature stage pruned nothing (%d of %d candidates survived)",
				tc.name, st.Survivors, st.Candidates)
		}
		// Reads have a second word behind the first; city names do not.
		if second := tc.name == "dna"; second != (st.Survivors < st.Passed) {
			return fmt.Errorf("cascade check %s: %d of the first word's %d survivors left the signature stage (second word: %v)",
				tc.name, st.Survivors, st.Passed, second)
		}
		if verified := comps.Value(); verified != st.Survivors {
			return fmt.Errorf("cascade check %s: %d signature survivors but %d verify calls",
				tc.name, st.Survivors, verified)
		}
	}
	return nil
}
