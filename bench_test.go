// Benchmarks, one per table and figure of the paper's evaluation (§5), plus
// the ablation benches listed in DESIGN.md §5.
//
// These run on reduced workloads so `go test -bench=.` finishes in minutes;
// the cmd/paperbench binary regenerates the full tables at configurable
// scale (PAPER_SCALE=1 for the paper's sizes). Engines here are built in
// their paper-faithful configuration; Ablation benches compare against the
// modern variants.
package simsearch_test

import (
	"fmt"
	"sync"
	"testing"

	"simsearch"
	"simsearch/internal/bench"
	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/edit"
	"simsearch/internal/pool"
	"simsearch/internal/scan"
	"simsearch/internal/trie"
)

// Bench workloads are built once and shared. Sizes: 8,000 city names with 20
// queries (k cycling 0–3), 4,000 DNA reads with 8 queries (k cycling
// 0/4/8/16).
var (
	onceWorkloads sync.Once
	cityW, dnaW   bench.Workload
)

func workloads() (bench.Workload, bench.Workload) {
	onceWorkloads.Do(func() {
		cfg := bench.Config{Scale: 0.02, CitySeed: 11, DNASeed: 12, QuerySeed: 13}
		cityW = bench.CityWorkload(cfg)
		cityW.Queries = cityW.Queries[:20]
		dnaCfg := bench.Config{Scale: 0.01, CitySeed: 11, DNASeed: 12, QuerySeed: 13}
		dnaW = bench.DNAWorkload(dnaCfg)
		dnaW.Queries = dnaW.Queries[:8]
	})
	return cityW, dnaW
}

func benchBatch(b *testing.B, eng core.Searcher, qs []core.Query, runner pool.Runner) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SearchBatch(eng, qs, runner)
	}
}

// --- Table I ----------------------------------------------------------------

func BenchmarkTableI_DatasetStats(b *testing.B) {
	city, dna := workloads()
	b.Run("city", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataset.Stats(city.Data)
		}
	})
	b.Run("dna", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataset.Stats(dna.Data)
		}
	})
}

// --- Tables II and VI: sequential thread sweeps -------------------------------

// threadCounts is the paper's §5.3.6 sweep, and the constants below the best
// thread count of each engine on each corpus: the settings paperbench's
// Tables II–X use (internal/bench).
var threadCounts = []int{4, 8, 16, 32}

const (
	bestSeqCityThreads   = 8
	bestIndexCityThreads = 32
	bestSeqDNAThreads    = 16
	bestIndexDNAThreads  = 16
)

func benchSeqThreads(b *testing.B, w bench.Workload) {
	for _, n := range threadCounts {
		eng := core.NewSequential(w.Data,
			scan.WithStrategy(scan.ParallelManaged), scan.WithWorkers(n))
		b.Run(eng.Name()+"-"+itoa(n), func(b *testing.B) {
			benchBatch(b, eng, w.Queries, nil)
		})
	}
}

func BenchmarkTableII_SeqCityThreads(b *testing.B) {
	city, _ := workloads()
	benchSeqThreads(b, city)
}

func BenchmarkTableVI_SeqDNAThreads(b *testing.B) {
	_, dna := workloads()
	benchSeqThreads(b, dna)
}

// --- Tables III and VII: sequential optimization ladders ----------------------

func benchSeqLadder(b *testing.B, w bench.Workload, skipBase bool) {
	for s := scan.Base; s <= scan.ParallelManaged; s++ {
		if skipBase && s == scan.Base {
			// The DNA base rung is the paper's "≈ half day" cell; even at
			// bench scale it dominates the suite. One query stands in.
			eng := core.NewSequential(w.Data, scan.WithStrategy(s))
			b.Run(s.String()+"-1query", func(b *testing.B) {
				benchBatch(b, eng, w.Queries[:1], nil)
			})
			continue
		}
		eng := core.NewSequential(w.Data,
			scan.WithStrategy(s), scan.WithWorkers(8))
		b.Run(s.String(), func(b *testing.B) {
			benchBatch(b, eng, w.Queries, nil)
		})
	}
}

func BenchmarkTableIII_SeqCityLadder(b *testing.B) {
	city, _ := workloads()
	benchSeqLadder(b, city, false)
}

func BenchmarkTableVII_SeqDNALadder(b *testing.B) {
	_, dna := workloads()
	benchSeqLadder(b, dna, true)
}

// --- Tables IV and VIII: index thread sweeps ----------------------------------

func benchIndexThreads(b *testing.B, w bench.Workload) {
	eng := core.NewTrie(w.Data, true)
	for _, n := range threadCounts {
		runner := pool.Fixed{Workers: n}
		b.Run(runner.Name(), func(b *testing.B) {
			benchBatch(b, eng, w.Queries, runner)
		})
	}
}

func BenchmarkTableIV_IndexCityThreads(b *testing.B) {
	city, _ := workloads()
	benchIndexThreads(b, city)
}

func BenchmarkTableVIII_IndexDNAThreads(b *testing.B) {
	_, dna := workloads()
	benchIndexThreads(b, dna)
}

// --- Tables V and IX: index ladders -------------------------------------------

func benchIndexLadder(b *testing.B, w bench.Workload, threads int) {
	plain := core.NewTrie(w.Data, false)
	b.Run("base", func(b *testing.B) {
		benchBatch(b, plain, w.Queries, nil)
	})
	compressed := core.NewTrie(w.Data, true)
	b.Run("compression", func(b *testing.B) {
		benchBatch(b, compressed, w.Queries, nil)
	})
	b.Run("parallel", func(b *testing.B) {
		benchBatch(b, compressed, w.Queries, pool.Fixed{Workers: threads})
	})
}

func BenchmarkTableV_IndexCityLadder(b *testing.B) {
	city, _ := workloads()
	benchIndexLadder(b, city, bestIndexCityThreads)
}

func BenchmarkTableIX_IndexDNALadder(b *testing.B) {
	_, dna := workloads()
	benchIndexLadder(b, dna, bestIndexDNAThreads)
}

// --- Figures 6 and 7: best engine head-to-head --------------------------------

func benchFigure(b *testing.B, w bench.Workload, seqThreads, idxThreads int) {
	seq := core.NewSequential(w.Data,
		scan.WithStrategy(scan.ParallelManaged), scan.WithWorkers(seqThreads))
	b.Run("best-sequential", func(b *testing.B) {
		benchBatch(b, seq, w.Queries, nil)
	})
	idx := core.NewTrie(w.Data, true)
	b.Run("best-index", func(b *testing.B) {
		benchBatch(b, idx, w.Queries, pool.Fixed{Workers: idxThreads})
	})
}

func BenchmarkFigure6_City(b *testing.B) {
	city, _ := workloads()
	benchFigure(b, city, bestSeqCityThreads, bestIndexCityThreads)
}

func BenchmarkFigure7_DNA(b *testing.B) {
	_, dna := workloads()
	benchFigure(b, dna, bestSeqDNAThreads, bestIndexDNAThreads)
}

// --- Ablations (DESIGN.md §5) --------------------------------------------------

// BenchmarkAblationEditDistance compares the DP kernel ladder on both
// alphabets: full matrix, two-row, the paper's §3.2 kernel and the banded
// kernel. The compiled Myers kernels have their own benchmark
// (internal/edit's BenchmarkBoundedKernels).
func BenchmarkAblationEditDistance(b *testing.B) {
	city, dna := workloads()
	pairs := map[string][2]string{
		"city": {city.Data[0], city.Data[1]},
		"dna":  {dna.Data[0], dna.Data[1]},
	}
	ks := map[string]int{"city": 3, "dna": 16}
	for name, p := range pairs {
		k := ks[name]
		b.Run(name+"/full-matrix", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				edit.DistanceFullMatrix(p[0], p[1])
			}
		})
		b.Run(name+"/two-row", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				edit.Distance(p[0], p[1])
			}
		})
		b.Run(name+"/paper-bounded", func(b *testing.B) {
			var s edit.Scratch
			for i := 0; i < b.N; i++ {
				s.PaperBoundedDistance(p[0], p[1], k)
			}
		})
		b.Run(name+"/banded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				edit.BoundedDistance(p[0], p[1], k)
			}
		})
	}
}

// BenchmarkAblationTrieCompression quantifies the §4.2 claim: compression
// reduces nodes and speeds up search, in both pruning modes.
func BenchmarkAblationTrieCompression(b *testing.B) {
	city, _ := workloads()
	configs := []struct {
		name     string
		compress bool
		opts     []trie.Option
	}{
		{"paper-plain", false, nil},
		{"paper-compressed", true, nil},
		{"modern-plain", false, []trie.Option{trie.WithModernPruning()}},
		{"modern-compressed", true, []trie.Option{trie.WithModernPruning()}},
	}
	for _, c := range configs {
		tr := trie.Build(city.Data, c.compress, c.opts...)
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(float64(tr.Stats().Nodes), "nodes")
			for i := 0; i < b.N; i++ {
				for _, q := range city.Queries {
					tr.Search(q.Text, q.K)
				}
			}
		})
	}
}

// BenchmarkTrieDescent times NewIndex — the compressed trie with the modern
// descent — on the fixed benchmark's corpora and query generator at seed 7:
// 100,000 names at k = 2 and 3, 10,000 reads at k = 4 and 8, 200 queries a
// threshold. It reports the mean µs per query over the b.N passes.
func BenchmarkTrieDescent(b *testing.B) {
	for _, c := range []struct {
		name string
		data []string
		ks   []int
	}{
		{"names", simsearch.GenerateCities(100000, 7), []int{2, 3}},
		{"reads", simsearch.GenerateDNAReads(10000, 7), []int{4, 8}},
	} {
		idx := simsearch.NewIndex(c.data)
		for _, k := range c.ks {
			qs := simsearch.GenerateQueries(c.data, 200, k, 7+int64(k))
			b.Run(fmt.Sprintf("%s/k%d", c.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range qs {
						idx.Search(simsearch.Query{Text: q, K: k})
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(qs)), "us/query")
			})
		}
	}
}

// BenchmarkTrieBuild times NewIndex's build — one sort, one recursion,
// straight into the packed slabs — on the fixed benchmark's generators at
// seed 7: 100,000 names, 50,000 names (city-live's seed corpus) and 10,000
// reads. It reports ns per string and allocations per build.
func BenchmarkTrieBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		data []string
	}{
		{"names100k", simsearch.GenerateCities(100000, 7)},
		{"names50k", simsearch.GenerateCities(50000, 7)},
		{"reads10k", simsearch.GenerateDNAReads(10000, 7)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simsearch.NewIndex(c.data)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.data)), "ns/string")
		})
	}
}

// BenchmarkBaselines races every engine family on both workloads.
func BenchmarkBaselines(b *testing.B) {
	city, dna := workloads()
	for _, wl := range []bench.Workload{city, dna} {
		engines := []core.Searcher{
			core.NewSequential(wl.Data, scan.WithStrategy(scan.SimpleTypes)),
			core.NewTrie(wl.Data, true, trie.WithModernPruning()),
			core.NewTrie(wl.Data, true),
			core.NewCascade(wl.Data),
		}
		for _, eng := range engines {
			b.Run(wl.Name+"/"+eng.Name(), func(b *testing.B) {
				benchBatch(b, eng, wl.Queries, nil)
			})
		}
	}
}

// BenchmarkJoin times the self-join as one search per string over the
// cascade (core.SelfJoin on a fixed pool of 4 workers) on the 8,000 names at
// k=1 and the 4,000 reads at k=8; the engine is built outside the timer.
func BenchmarkJoin(b *testing.B) {
	city, dna := workloads()
	for _, c := range []struct {
		wl bench.Workload
		k  int
	}{{city, 1}, {dna, 8}} {
		eng := core.NewCascade(c.wl.Data)
		b.Run(c.wl.Name+"/"+eng.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SelfJoin(eng, c.wl.Data, c.k, pool.Fixed{Workers: 4})
			}
		})
	}
}

// BenchmarkAblationPool compares the serial baseline with the §3.6
// strategies 1 and 2 (a thread per query, a fixed pool) on a uniform
// workload.
func BenchmarkAblationPool(b *testing.B) {
	city, _ := workloads()
	eng := core.NewSequential(city.Data, scan.WithStrategy(scan.SimpleTypes))
	runners := []pool.Runner{
		pool.Serial{},
		pool.PerTask{},
		pool.Fixed{Workers: 8},
	}
	for _, r := range runners {
		b.Run(r.Name(), func(b *testing.B) {
			benchBatch(b, eng, city.Queries, r)
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
