package bench

import (
	"strings"
	"testing"
	"time"

	"simsearch/internal/core"
)

// tinyConfig keeps harness tests fast: ~400 cities, ~750 reads, 1/1/2 query
// batches.
func tinyConfig() Config {
	return Config{Scale: 0.001, CitySeed: 1, DNASeed: 2, QuerySeed: 3}
}

func TestConfigScaling(t *testing.T) {
	cfg := Config{Scale: 0.1}
	if got := cfg.scaled(400000); got != 40000 {
		t.Errorf("scaled(400000) = %d", got)
	}
	if got := cfg.scaled(1); got != 1 {
		t.Errorf("floor broken: %d", got)
	}
	counts := cfg.QueryCounts()
	if len(counts) != 3 || counts[0] != 10 || counts[1] != 50 || counts[2] != 100 {
		t.Errorf("QueryCounts = %v", counts)
	}
}

func TestDefaultConfigEnvOverride(t *testing.T) {
	t.Setenv("PAPER_SCALE", "0.5")
	if cfg := DefaultConfig(); cfg.Scale != 0.5 {
		t.Errorf("Scale = %f", cfg.Scale)
	}
	t.Setenv("PAPER_SCALE", "garbage")
	if cfg := DefaultConfig(); cfg.Scale != 0.1 {
		t.Errorf("bad env not ignored: %f", cfg.Scale)
	}
}

func TestTimeLimitEnvOverride(t *testing.T) {
	t.Setenv("PAPER_BENCH_LIMIT", "2.5")
	if got := timeLimit(); got != 2500*time.Millisecond {
		t.Errorf("timeLimit = %v", got)
	}
	t.Setenv("PAPER_BENCH_LIMIT", "")
	if got := timeLimit(); got != 15*time.Second {
		t.Errorf("default timeLimit = %v", got)
	}
}

func TestWorkloadsWellFormed(t *testing.T) {
	cfg := tinyConfig()
	city := CityWorkload(cfg)
	dna := DNAWorkload(cfg)
	for _, w := range []Workload{city, dna} {
		if len(w.Data) == 0 || len(w.Queries) == 0 {
			t.Fatalf("%s workload empty", w.Name)
		}
		if len(w.Queries) != w.Counts[len(w.Counts)-1] {
			t.Errorf("%s: %d queries for counts %v", w.Name, len(w.Queries), w.Counts)
		}
		seenK := map[int]bool{}
		for _, q := range w.Queries {
			seenK[q.K] = true
		}
		for _, k := range w.Ks[:min(len(w.Ks), len(w.Queries))] {
			if !seenK[k] {
				t.Errorf("%s: threshold %d never queried", w.Name, k)
			}
		}
	}
	if got := city.Batch(1 << 30); len(got) != len(city.Queries) {
		t.Errorf("Batch clamping broken: %d", len(got))
	}
}

func TestCellString(t *testing.T) {
	cases := map[time.Duration]string{
		90 * time.Minute:        "1.50 h",
		2500 * time.Millisecond: "2.50 sec",
		1500 * time.Microsecond: "1.50 ms",
		800 * time.Nanosecond:   "0 µs",
	}
	for d, want := range cases {
		if got := (Cell{Elapsed: d}).String(); got != want {
			t.Errorf("Cell(%v) = %q, want %q", d, got, want)
		}
	}
	if got := (Cell{Elapsed: time.Second, Estimated: true}).String(); got != "≈ 1.00 sec" {
		t.Errorf("estimated cell = %q", got)
	}
}

func TestTableRenderAndBest(t *testing.T) {
	tab := newTable("Table X. Demo", []int{100, 500})
	tab.AddRow("slow", []Cell{{Elapsed: 2 * time.Second}, {Elapsed: 10 * time.Second}})
	tab.AddRow("fast", []Cell{{Elapsed: 1 * time.Second}, {Elapsed: 3 * time.Second}})
	s := tab.String()
	for _, want := range []string{"Table X. Demo", "100 queries", "500 queries", "slow", "fast", "2.00 sec"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q in:\n%s", want, s)
		}
	}
	if tab.Best() != "fast" {
		t.Errorf("Best = %q", tab.Best())
	}
}

func TestMeasureBatchPositive(t *testing.T) {
	cfg := tinyConfig()
	w := CityWorkload(cfg)
	eng := core.NewTrie(w.Data, true)
	if d := measureBatch(eng, w.Batch(1), nil); d <= 0 {
		t.Errorf("elapsed %v", d)
	}
}

func TestSeriesExtrapolation(t *testing.T) {
	t.Setenv("PAPER_BENCH_LIMIT", "0.000001") // force extrapolation everywhere
	w := Workload{
		Name:   "syn",
		Counts: []int{2, 4},
		Queries: []core.Query{
			{Text: "a"}, {Text: "b"}, {Text: "c"}, {Text: "d"},
		},
	}
	calls := 0
	// series bases its extrapolation decision on the duration run returns,
	// so the fake measurement needs no real elapsed time at all.
	cells := series(w, func(qs []core.Query) time.Duration {
		calls++
		return time.Duration(len(qs)) * time.Millisecond
	})
	if len(cells) != 2 {
		t.Fatalf("cells = %v", cells)
	}
	for _, c := range cells {
		if !c.Estimated {
			t.Errorf("cell not estimated: %+v", c)
		}
	}
	if calls != 1 {
		t.Errorf("probe calls = %d, want 1", calls)
	}
}

func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	cfg := tinyConfig()
	city := CityWorkload(cfg)
	dna := DNAWorkload(cfg)
	tables := []*Table{
		TableI(city, dna),
		TableII(city), TableIII(city), TableIV(city), TableV(city),
		TableVI(dna), TableVII(dna), TableVIII(dna), TableIX(dna),
		Figure6(city), Figure7(dna),
		TableX(city, 1, 200), TableX(dna, 4, 100),
		TableXI(city),
		TableXII(city),
		TableXIII(city, 2),
		TableXIV(city, 4),
	}
	for i, tab := range tables {
		if tab.Title == "" {
			t.Errorf("table %d has no title", i)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", tab.Title)
		}
		if tab.String() == "" {
			t.Errorf("%s renders empty", tab.Title)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
