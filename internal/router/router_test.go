package router

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
)

// TestRegimeBuckets pins the regime index arithmetic to its labels: every
// (len, k, sel) combination must round-trip through regime() to the bucket
// triple the stats surface would print for it.
func TestRegimeBuckets(t *testing.T) {
	data := []string{"aaaa", "bbbbbbbb", "cccccccccccccccc"}
	e := New(data)
	cases := []struct {
		q     core.Query
		label string
	}{
		{core.Query{Text: "aaaa", K: 0}, "len<=4 k=0 sel<75%"},
		{core.Query{Text: "aaaa", K: 1}, "len<=4 k=1 sel<75%"},
		{core.Query{Text: "bbbbbbbb", K: 2}, "len<=8 k=2 sel<75%"},
		{core.Query{Text: "cccccccccccccccc", K: 5}, "len<=16 k=4..8 sel<75%"},
		{core.Query{Text: "cccccccccccccccc", K: 100}, "len<=16 k>8 sel>=75%"},
	}
	for _, c := range cases {
		if got := regimeLabel(e.regime(c.q)); got != c.label {
			t.Errorf("regime(%q, k=%d) = %q, want %q", c.q.Text, c.q.K, got, c.label)
		}
	}
}

// TestSelectivityWindow pins the O(1) prefix-count selectivity estimate
// against a direct count.
func TestSelectivityWindow(t *testing.T) {
	data := []string{"a", "bb", "bb", "ccc", "dddd", "eeeee"}
	e := New(data)
	for _, c := range []struct {
		lo, hi, want int
	}{
		{0, 10, 6}, {2, 3, 3}, {1, 1, 1}, {5, 5, 1}, {6, 9, 0}, {-3, 1, 1},
	} {
		if got := e.window(c.lo, c.hi); got != c.want {
			t.Errorf("window(%d, %d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

// TestColdStartPrior pins the prior: core.Auto's two scan rules, and on an
// amortized corpus the cascade from k = 0 through k = 8 (whichever signature
// the data selects, unless k is permissive for the corpus) with the trie
// past it: before any feedback the router must prefer exactly this.
func TestColdStartPrior(t *testing.T) {
	small := dataset.Cities(100, 1)
	if got := New(small).Preferred(core.Query{Text: "berlin", K: 2}); got != "bitparallel" {
		t.Errorf("small dataset prior = %s, want bitparallel (core.Auto's sub-amortization rule)", got)
	}

	// k = 0..8 go to the cascade where k is at most half the average length
	// — city names are about 11 bytes, so there the window ends at k = 5 —
	// the trie takes what lies past the window (core.Auto's index rule) and
	// permissive k falls back to the scan (core.Auto's pruning-defeat rule).
	for name, c := range map[string]struct {
		data []string
		want map[int]string
	}{
		"city": {dataset.Cities(core.BuildAmortization, 1),
			map[int]string{0: "cascade", 1: "cascade", 2: "cascade", 3: "cascade", 4: "cascade", 5: "cascade", 8: "bitparallel", 200: "bitparallel"}},
		"DNA": {dataset.DNAReads(core.BuildAmortization, 2),
			map[int]string{0: "cascade", 1: "cascade", 2: "cascade", 3: "cascade", 4: "cascade", 8: "cascade", 9: "trie", 200: "bitparallel"}},
	} {
		e := New(c.data)
		for k, w := range c.want {
			if got := e.Preferred(core.Query{Text: c.data[0], K: k}); got != w {
				t.Errorf("%s prior at k=%d = %s, want %s", name, k, got, w)
			}
		}
	}
}

// TestCascadeArmBackends pins the cascade arm of each corpus — one layout,
// the signature kind chosen by the data — and the build order: the cascade
// packs the arena and needs no other arm; the scan arm sweeps the cascade's
// arena and so builds the cascade first.
func TestCascadeArmBackends(t *testing.T) {
	for want, data := range map[string][]string{
		"cascade/dna":   dataset.DNAReads(200, 2),
		"cascade/bytes": dataset.Cities(200, 1),
	} {
		e := New(data)
		if got := e.engine(engCascade).Name(); got != want {
			t.Errorf("cascade arm = %s, want %s", got, want)
		}
		if e.built[engBitParallel].Load() || e.built[engTrie].Load() {
			t.Errorf("%s arm built another arm with it", want)
		}
		e = New(data)
		scanArm := e.engine(engBitParallel).(*core.Sequential)
		if !e.built[engCascade].Load() {
			t.Fatalf("%s: scan arm built without the cascade arm whose arena it sweeps", want)
		}
		if scanArm.ScanEngine().Arena() != e.engine(engCascade).(*core.Cascade).CascadeEngine().Arena() {
			t.Errorf("%s: the scan arm packed an arena of its own", want)
		}
	}
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cascadeArmSharesArena: the router's cascade arm answers byte-for-byte like
// a standalone cascade; building it costs the arena and wordBytes per string
// beside it (8, or 16 for the two words of a read, and one more for the block
// summaries), with nothing kept of the sort that ordered it; and building
// the scan arm after it grows the heap by no more than an engine header,
// because the arena is the cascade arm's, not a copy.
func cascadeArmSharesArena(t *testing.T, data []string, wordBytes float64) {
	e := New(data, WithExploreEvery(1))
	var corpus int
	for _, s := range data {
		corpus += len(s)
	}
	before := heapInUse()
	arm := e.engine(engCascade)
	grown := int64(heapInUse()) - int64(before)
	// 4 B/string of slot IDs in the arena, and 2 of slack for the bucket tables.
	if perString := float64(grown-int64(corpus)) / float64(len(data)); perString >= wordBytes+1+4+2 {
		t.Errorf("building the cascade arm grew the heap by %.1f B/string beyond the corpus (%d B), want < %.0f: build scratch must not be kept",
			perString, grown, wordBytes+1+4+2)
	}
	before = heapInUse()
	scanArm := e.engine(engBitParallel)
	grown = int64(heapInUse()) - int64(before)
	if perString := float64(grown) / float64(len(data)); perString >= 1 {
		t.Errorf("building the scan arm grew the heap by %.1f B/string (%d B), want < 1: the arena must be shared", perString, grown)
	}
	own := core.NewCascade(data)
	for i, text := range dataset.Queries(data, 80, 3, 19) {
		q := core.Query{Text: text, K: i % 4}
		want := own.Search(q)
		if got := arm.Search(q); !core.Equal(got, want) {
			t.Fatalf("cascade arm Search(%+v) = %v, standalone cascade %v", q, got, want)
		}
		if got := scanArm.Search(q); !core.Equal(got, want) {
			t.Fatalf("scan arm Search(%+v) = %v, standalone cascade %v", q, got, want)
		}
		if got := e.Search(q); !core.Equal(got, want) { // whichever arm the forced explore lands on
			t.Fatalf("router Search(%+v) = %v, standalone cascade %v", q, got, want)
		}
	}
	runtime.KeepAlive(arm)
	runtime.KeepAlive(scanArm)
}

func TestCityCascadeArmSharesArena(t *testing.T) {
	cascadeArmSharesArena(t, dataset.Cities(50000, 18), 8)
}

func TestDNACascadeArmSharesArena(t *testing.T) {
	cascadeArmSharesArena(t, dataset.DNAReads(10000, 18), 16)
}

// TestLazyArmsUnderConcurrentQueries: the first queries of a router arrive
// together, from many goroutines, and build the arms between them — the scan
// arm over the arena the cascade arm packs, whichever is asked for first.
// Every answer is the oracle's; under -race this is the gate on an arena
// being fixed before anyone else can see it.
func TestLazyArmsUnderConcurrentQueries(t *testing.T) {
	data := append(dataset.Cities(600, 5), dataset.DNAReads(40, 5)...)
	oracle := core.Reference(data)
	queries := []core.Query{
		{Text: data[0], K: 0}, {Text: data[1], K: 1}, {Text: "berlin", K: 2}, {Text: data[610], K: 3}, {Text: "", K: 1},
	}
	want := make([][]core.Match, len(queries))
	for i, q := range queries {
		want[i] = oracle.Search(q)
	}
	for round := 0; round < 4; round++ {
		e := New(data, WithExploreEvery(1)) // every query explores: all three arms are asked for at once
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					j := (g + i) % len(queries)
					if got := e.Search(queries[j]); !core.Equal(got, want[j]) {
						t.Errorf("round %d: Search(%+v) = %v, want %v", round, queries[j], got, want[j])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		scanArm, casc := e.engine(engBitParallel).(*core.Sequential), e.engine(engCascade).(*core.Cascade)
		if scanArm.ScanEngine().Arena() != casc.CascadeEngine().Arena() {
			t.Fatalf("round %d: the arms ended up over two arenas", round)
		}
	}
}

// TestRoutingIdenticalAcrossArms proves routing is a pure speed decision:
// with the explore arm forced on every query, repeated searches take
// different engines and every result must equal the DP oracle's.
func TestRoutingIdenticalAcrossArms(t *testing.T) {
	data := append(dataset.Cities(300, 3), "", "x")
	e := New(data, WithExploreEvery(1))
	oracle := core.Reference(data)
	queries := []core.Query{
		{Text: "berlin", K: 2}, {Text: data[0], K: 0}, {Text: data[1], K: 1},
		{Text: "", K: 1}, {Text: "zzzzzzzzzz", K: 3},
	}
	for rep := 0; rep < 8; rep++ { // cycle the forced arm through every engine
		for _, q := range queries {
			want := oracle.Search(q)
			got := e.Search(q)
			if len(got) != len(want) {
				t.Fatalf("rep %d %+v: got %d matches, want %d", rep, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rep %d %+v: got[%d] = %+v, want %+v", rep, q, i, got[i], want[i])
				}
			}
		}
	}
	st := e.Stats()
	if st.Explores == 0 {
		t.Error("forced explore mode recorded no explores")
	}
	var used int
	for _, es := range st.Engines {
		if es.Routes > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("forced explore mode used %d engines, want >= 2", used)
	}
}

// TestFeedbackFlipsPreferred proves the online re-fit: planting measured
// floors that contradict the prior must flip the routed engine — here off
// the cascade, which the prior starts every k <= 8 regime on, to the trie,
// the direction the prior leaves to feedback.
func TestFeedbackFlipsPreferred(t *testing.T) {
	data := dataset.Cities(core.BuildAmortization, 1)
	e := New(data)
	q := core.Query{Text: "berlin", K: 1}
	r := e.regime(q)
	if got := e.preferred(r, q); got != engCascade {
		t.Fatalf("cold preference = %v, want cascade", engineNames[got])
	}
	// Feedback says the cascade and the bare scan are slow here, the trie
	// fast. (Every arm needs a sample: an unsampled engine keeps its
	// optimistic prior, and discovering such engines is exactly what the
	// explore arm is for.)
	e.observe(decision{id: engCascade, regime: r}, 800*time.Microsecond)
	e.observe(decision{id: engBitParallel, regime: r}, 900*time.Microsecond)
	e.observe(decision{id: engTrie, regime: r}, 30*time.Microsecond)
	if got := e.preferred(r, q); got != engTrie {
		t.Fatalf("preference after feedback = %v, want trie", engineNames[got])
	}
	if got := e.Preferred(q); got != "trie" {
		t.Fatalf("Preferred(q) = %q, want trie", got)
	}
}

// TestFloorAndEwma pins the two estimators' update rules: the EWMA is a
// bias-corrected mean, the floor is a decaying minimum (one fast sample sets
// it; later slow samples only let it drift up floorDecay per observation).
func TestFloorAndEwma(t *testing.T) {
	e := New(dataset.Cities(100, 1))
	d := decision{id: engBitParallel, regime: 7}
	cell := int(d.id)*numRegimes + d.regime

	e.observe(d, 100*time.Microsecond)
	e.observe(d, 200*time.Microsecond)
	ewma := math.Float64frombits(e.ewma[cell].Load())
	if want := 150e3; math.Abs(ewma-want) > 1 {
		t.Errorf("ewma after {100us, 200us} = %.0fns, want %.0f (cumulative mean)", ewma, want)
	}
	floor := math.Float64frombits(e.floor[cell].Load())
	if want := 100e3 * floorDecay; math.Abs(floor-want) > 1 {
		t.Errorf("floor after {100us, 200us} = %.0fns, want %.0f (decayed minimum)", floor, want)
	}
	e.observe(d, 40*time.Microsecond)
	if floor = math.Float64frombits(e.floor[cell].Load()); floor != 40e3 {
		t.Errorf("floor after a faster sample = %.0fns, want 40000", floor)
	}
	if s := e.samples[cell].Load(); s != 3 {
		t.Errorf("samples = %d, want 3", s)
	}
}

// TestExploreBounded runs a steady workload and checks the explore arm's
// promise: explores happen, but stay a bounded sliver of traffic.
func TestExploreBounded(t *testing.T) {
	data := dataset.Cities(core.BuildAmortization, 2)
	e := New(data)
	q := core.Query{Text: data[0], K: 1}
	for i := 0; i < 2000; i++ {
		e.Search(q)
	}
	st := e.Stats()
	if st.Explores == 0 {
		t.Error("no explores over 2000 queries; the arm is dead")
	}
	if st.ExploreRatio > 0.35 {
		t.Errorf("explore ratio %.2f; the arm is unbounded", st.ExploreRatio)
	}
	if st.Queries != 2000 {
		t.Errorf("queries = %d, want 2000", st.Queries)
	}
}

// TestSetExploreEveryAndFrozen pins the two operator switches: explore 0
// stops exploration but keeps learning; frozen stops learning but keeps
// routing and counting.
func TestSetExploreEveryAndFrozen(t *testing.T) {
	data := dataset.Cities(core.BuildAmortization, 2)
	e := New(data)
	q := core.Query{Text: data[0], K: 1}
	r := e.regime(q)

	e.SetExploreEvery(0)
	for i := 0; i < 200; i++ {
		e.Search(q)
	}
	st := e.Stats()
	if st.Explores != 0 {
		t.Errorf("explores with the arm off = %d, want 0", st.Explores)
	}
	prefCell := int(e.preferred(r, q))*numRegimes + r
	if e.samples[prefCell].Load() == 0 {
		t.Error("feedback stopped with the explore arm off; want routing to keep learning")
	}

	e.SetFrozen(true)
	samplesBefore := e.samples[prefCell].Load()
	queriesBefore := e.Stats().Queries
	for i := 0; i < 100; i++ {
		e.Search(q)
	}
	if got := e.samples[prefCell].Load(); got != samplesBefore {
		t.Errorf("frozen router learned (%d -> %d samples)", samplesBefore, got)
	}
	if got := e.Stats().Queries; got != queriesBefore+100 {
		t.Errorf("frozen router stopped counting (%d -> %d)", queriesBefore, got)
	}
	e.SetFrozen(false)
	e.Search(q)
	if got := e.samples[prefCell].Load(); got == samplesBefore {
		t.Error("unfrozen router did not resume learning")
	}
}

// TestLazyBuildAndPrime proves engines build on first route only: a workload
// that never leaves the preferred arm builds one engine, and Prime builds
// the rest.
func TestLazyBuildAndPrime(t *testing.T) {
	data := dataset.Cities(core.BuildAmortization, 2)
	e := New(data, WithExploreEvery(0))
	var built int
	for id := engineID(0); id < numEngines; id++ {
		if e.built[id].Load() {
			built++
		}
	}
	if built != 0 {
		t.Fatalf("%d engines built before any query, want 0", built)
	}
	e.Search(core.Query{Text: data[0], K: 1})
	built = 0
	for id := engineID(0); id < numEngines; id++ {
		if e.built[id].Load() {
			built++
		}
	}
	if built != 1 {
		t.Errorf("%d engines built after one no-explore query, want 1", built)
	}
	e.Prime()
	for id := engineID(0); id < numEngines; id++ {
		if !e.built[id].Load() {
			t.Errorf("Prime left %s unbuilt", engineNames[id])
		}
	}
}

// TestSearchContext checks the context path: a live context routes and
// learns like Search, a cancelled one returns before touching an engine and
// must not poison the estimator with a deadline measurement.
func TestSearchContext(t *testing.T) {
	data := dataset.Cities(200, 2)
	e := New(data)
	q := core.Query{Text: data[0], K: 1}
	got, err := e.SearchContext(context.Background(), q)
	if err != nil || len(got) == 0 {
		t.Fatalf("SearchContext = %v, %v", got, err)
	}
	queries := e.Stats().Queries

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SearchContext(ctx, q); err == nil {
		t.Fatal("cancelled context searched anyway")
	}
	if after := e.Stats().Queries; after != queries {
		t.Errorf("cancelled query was routed and counted (%d -> %d)", queries, after)
	}
}

// TestStatsAndMerge exercises the stats snapshot and the sharded-path
// aggregation: counters sum, regime cells merge with sample-weighted EWMAs
// and min-of-floors, preferred follows the merged floor.
func TestStatsAndMerge(t *testing.T) {
	a, b := New(dataset.Cities(100, 1)), New(dataset.Cities(100, 2))
	q := core.Query{Text: "berlin", K: 1}
	for i := 0; i < 10; i++ {
		a.Search(q)
		b.Search(q)
	}
	sa, sb := a.Stats(), b.Stats()
	m := Merge(sa, sb)
	if m.Queries != sa.Queries+sb.Queries {
		t.Errorf("merged queries = %d, want %d", m.Queries, sa.Queries+sb.Queries)
	}
	if len(m.Regimes) == 0 {
		t.Fatal("merged stats lost the regime table")
	}
	for _, rs := range m.Regimes {
		for name, fl := range rs.FloorUS {
			if ew := rs.EwmaUS[name]; fl > ew*floorDecay+1e-9 {
				t.Errorf("%s %s: merged floor %.1f above decayed ewma %.1f", rs.Regime, name, fl, ew)
			}
		}
		best := math.Inf(1)
		for _, fl := range rs.FloorUS {
			if fl < best {
				best = fl
			}
		}
		if rs.FloorUS[rs.Preferred] != best {
			t.Errorf("%s: preferred %q floor %.1f, want the minimum %.1f",
				rs.Regime, rs.Preferred, rs.FloorUS[rs.Preferred], best)
		}
	}
	if one := Merge(sa); one.Queries != sa.Queries {
		t.Errorf("single-snapshot merge altered queries: %d != %d", one.Queries, sa.Queries)
	}
}

// TestConcurrentSearch hammers one router from many goroutines; run under
// -race this is the lock-free feedback path's data-race gate, and the final
// counters must balance.
func TestConcurrentSearch(t *testing.T) {
	data := dataset.Cities(500, 3)
	e := New(data, WithExploreEvery(4))
	queries := []core.Query{
		{Text: data[0], K: 0}, {Text: data[1], K: 1},
		{Text: "berlin", K: 2}, {Text: "münchen", K: 3},
	}
	const workers, perWorker = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e.Search(queries[(w+i)%len(queries)])
			}
		}(w)
	}
	wg.Wait()
	st := e.Stats()
	if st.Queries != workers*perWorker {
		t.Errorf("queries = %d, want %d", st.Queries, workers*perWorker)
	}
	var routed uint64
	for _, es := range st.Engines {
		routed += es.Routes
	}
	if routed != workers*perWorker {
		t.Errorf("summed routes = %d, want %d", routed, workers*perWorker)
	}
}

// TestEligibleAndName pins the introspection surface.
func TestEligibleAndName(t *testing.T) {
	e := New(dataset.DNAReads(50, 1))
	if e.Name() != "router" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.Len() != 50 {
		t.Errorf("Len = %d", e.Len())
	}
	want := []string{"bitparallel", "trie", "cascade"}
	got := e.Eligible()
	if len(got) != len(want) {
		t.Fatalf("Eligible = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Eligible = %v, want %v", got, want)
		}
	}
}
