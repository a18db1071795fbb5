package lsm

import (
	"context"
	"fmt"
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/scan"
)

// BenchmarkLiveInsert measures the write path: WAL-less insert into the
// delta with periodic flushes at the default limit.
func BenchmarkLiveInsert(b *testing.B) {
	st, err := Open(Options{MaxSegments: 1 << 30})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Insert(fmt.Sprintf("bench-string-%d", i)); err != nil {
			b.Fatalf("Insert: %v", err)
		}
	}
}

// BenchmarkLiveSearch measures a query over a store shaped like a live
// service's — a seed segment, three flushed segments of 1,024 strings and a
// 500-entry delta in front — on generated city names (25,000 seeded, k
// alternating 1 and 2) and on reads (5,000 seeded, k alternating 2 and 4).
// Beside ns/op and allocs/op it reports how many strings a query's word left
// for the kernel, segments and delta together; a query that stops matching
// the string it was derived from fails the run.
func BenchmarkLiveSearch(b *testing.B) {
	for _, c := range []struct {
		name string
		data []string
		seed int
		ks   [2]int
	}{
		{"city", dedupe(dataset.Cities(32000, 22)), 25000, [2]int{1, 2}},
		{"reads", dedupe(dataset.DNAReads(9000, 22)), 5000, [2]int{2, 4}},
	} {
		b.Run(c.name, func(b *testing.B) {
			st, err := Open(Options{Seed: seedEntries(c.data[:c.seed]), FlushLimit: 1 << 20, MaxSegments: 100})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			defer st.Close()
			writes := c.data[c.seed : c.seed+3*1024+500]
			for i, s := range writes {
				st.Insert(s)
				if i < 3*1024 && i%1024 == 1023 {
					if err := st.Flush(); err != nil {
						b.Fatalf("Flush: %v", err)
					}
				}
			}
			if got := st.Stats(); got.Segments != 4 || got.DeltaEntries != 500 {
				b.Fatalf("store shape: %+v", got)
			}
			qs := dataset.Queries(c.data[:c.seed+len(writes)], 300, c.ks[0], 22)
			var kept uint64
			for i, q := range qs {
				kept += wordSurvivors(st, core.Query{Text: q, K: c.ks[i%2]})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ms := st.Search(core.Query{Text: qs[i%len(qs)], K: c.ks[i%len(qs)%2]}); len(ms) == 0 {
					b.Fatalf("query %q stopped matching", qs[i%len(qs)])
				}
			}
			b.ReportMetric(float64(kept)/float64(len(qs)), "survivors/query")
		})
	}
}

// wordSurvivors counts the strings of q's length window whose word does not
// reject them, over every segment and the delta.
func wordSurvivors(st *Store, q core.Query) uint64 {
	pr := scan.NewProbe(q.Text, q.K)
	for _, seg := range st.segs {
		seg.words.Sweep(context.Background(), &pr, q.K, nil)
	}
	lo, hi := pr.Lengths()
	for _, e := range st.delta.byLen {
		if int(e.n) >= lo && int(e.n) <= hi && !pr.Rejects(e.word, e.counts) {
			pr.Kept++
		}
	}
	return pr.Kept
}
