package bench

import (
	"fmt"
	"runtime"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/exec"
	"simsearch/internal/pool"
	"simsearch/internal/scan"
	"simsearch/internal/trie"
)

// Extension experiments beyond the paper's tables. They carry invented
// numbers (X, XI) and are clearly labelled as additions: the join over each
// engine covers the competition's second problem the paper skipped, and the
// engine matrix races both of the paper's engines — the index also with its
// modern pruning — and the filtered sweep (the modern scan) on both
// workloads, quantifying how implementation-dependent the paper's conclusion
// is.

// TableX times a self-join of a subset of the workload as one search per
// string (core.SelfJoin) over Table XI's two modern engines, each built over
// the subset inside the timed region, with the probes on a fixed pool of 8
// workers. Join cost grows quadratically in the worst case, so the subset
// size is capped.
func TableX(w Workload, k, maxN int) *Table {
	n := len(w.Data)
	if maxN <= 0 {
		maxN = 20000
	}
	if n > maxN {
		n = maxN
	}
	data := w.Data[:n]
	t := &Table{
		Title:   fmt.Sprintf("Table X (extension). Similarity self-join on %d %s strings, k=%d", n, w.Name, k),
		Columns: []string{"time"},
	}
	engines := []struct {
		name  string
		build func() core.Searcher
	}{
		{"trie (modern pruning)", func() core.Searcher { return core.NewTrie(data, true, trie.WithModernPruning()) }},
		{"cascade (words sweep)", func() core.Searcher { return core.NewCascade(data) }},
	}
	for _, e := range engines {
		start := time.Now()
		pairs := core.SelfJoin(e.build(), data, k, pool.Fixed{Workers: 8})
		elapsed := time.Since(start)
		t.AddRow(fmt.Sprintf("%-21s (%d pairs)", e.name, len(pairs)), []Cell{{Elapsed: elapsed}})
	}
	return t
}

// TableXII reports per-engine construction cost: wall-clock build time and
// retained heap after a GC. The paper excludes build time from every
// measurement (§5.2); this table shows what that exclusion hides.
func TableXII(w Workload) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table XII (extension). Index construction cost on the %s workload (%d strings)", w.Name, len(w.Data)),
		Columns: []string{"build time"},
	}
	builders := []struct {
		name  string
		build func() core.Searcher
	}{
		{"scan (no index)", func() core.Searcher { return core.NewSequential(w.Data, scan.WithStrategy(scan.SimpleTypes)) }},
		{"trie (paper)", func() core.Searcher { return core.NewTrie(w.Data, true) }},
		{"trie (modern)", func() core.Searcher { return core.NewTrie(w.Data, true, trie.WithModernPruning()) }},
		{"cascade (words)", func() core.Searcher { return core.NewCascade(w.Data) }},
	}
	var sink core.Searcher
	for _, b := range builders {
		// Drop the previous engine before the baseline measurement, or the
		// delta would be (current - previous) instead of current.
		sink = nil
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		sink = b.build()
		elapsed := time.Since(start)
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if retained < 0 {
			retained = 0
		}
		t.AddRow(fmt.Sprintf("%-16s [%6.1f MB retained]", b.name, float64(retained)/(1<<20)),
			[]Cell{{Elapsed: elapsed}})
	}
	runtime.KeepAlive(sink)
	return t
}

// TableXI races the paper's scan, its index with the paper's and the modern
// pruning, and the filtered sweep the library serves with (its fast scan) on
// the workload's full query batch.
func TableXI(w Workload) *Table {
	t := newTable(fmt.Sprintf("Table XI (extension). Engine matrix on the %s workload", w.Name), w.Counts)
	engines := []core.Searcher{
		core.NewSequential(w.Data, scan.WithStrategy(scan.SimpleTypes)),
		core.NewTrie(w.Data, true),
		core.NewTrie(w.Data, true, trie.WithModernPruning()),
		core.NewCascade(w.Data),
	}
	names := []string{
		"scan (paper kernel)",
		"trie (paper pruning)",
		"trie (modern pruning)",
		"cascade (words sweep)",
	}
	for i, eng := range engines {
		eng := eng
		cells := series(w, func(qs []core.Query) time.Duration {
			return measureBatch(eng, qs, nil)
		})
		t.AddRow(names[i], cells)
	}
	return t
}

// TableXIII answers the paper's final §6 future-work question — "Has the
// number of data records an effect on the best solution?" — by sweeping the
// dataset size and timing the paper-faithful best sequential and best index
// configurations on a fixed query batch.
func TableXIII(w Workload, queries int) *Table {
	if queries > len(w.Queries) {
		queries = len(w.Queries)
	}
	qs := w.Queries[:queries]
	t := &Table{
		Title: fmt.Sprintf("Table XIII (extension). Dataset-size sweep on the %s workload (%d queries)",
			w.Name, queries),
		Columns: []string{"sequential", "index"},
	}
	for _, frac := range []int{8, 4, 2, 1} {
		n := len(w.Data) / frac
		if n == 0 {
			continue
		}
		data := w.Data[:n]
		seq := core.NewSequential(data, scan.WithStrategy(scan.SimpleTypes))
		start := time.Now()
		for _, q := range qs {
			seq.Search(q)
		}
		seqTime := time.Since(start)
		idx := core.NewTrie(data, true)
		start = time.Now()
		for _, q := range qs {
			idx.Search(q)
		}
		idxTime := time.Since(start)
		t.AddRow(fmt.Sprintf("n=%d", n), []Cell{{Elapsed: seqTime}, {Elapsed: idxTime}})
	}
	return t
}

// shardCounts is the shard sweep, the serving-path analogue of the paper's
// Tables II/IV worker sweep.
var shardCounts = []int{1, 2, 4, 8, 16}

// TableXIV sweeps the sharded executor's shard count over the workload's
// query batches, with the paper's best parallel configuration (the §3.6
// rung: one engine, one fixed pool across queries) as the baseline row.
// Every shard runs the same §3.4 kernel and both axes use the same worker
// pool size, so the table isolates what partitioning the data adds on top
// of parallelizing across queries: intra-query parallelism and cache-sized
// per-shard working sets.
func TableXIV(w Workload, workers int) *Table {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t := newTable(fmt.Sprintf(
		"Table XIV (extension). Sharded-executor sweep on the %s workload (%d pool workers)",
		w.Name, workers), w.Counts)

	baseline := core.NewSequential(w.Data,
		scan.WithStrategy(scan.ParallelManaged), scan.WithWorkers(workers))
	cells := series(w, func(qs []core.Query) time.Duration {
		return measureBatch(baseline, qs, nil)
	})
	t.AddRow("parallel scan (paper §3.6)", cells)

	for _, p := range shardCounts {
		ex := exec.New(w.Data, exec.Options{
			Shards:  p,
			Factory: func(d []string) core.Searcher { return core.NewSequential(d) },
			Runner:  pool.Fixed{Workers: workers},
		})
		cells := series(w, func(qs []core.Query) time.Duration {
			return measureBatch(ex, qs, nil)
		})
		t.AddRow(fmt.Sprintf("sharded scan, P=%d", p), cells)
	}
	return t
}
