package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"simsearch"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is set on
// end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The program reads it instead of repeating it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the checkout root, whether the program
// runs there (run.sh) or in the benchmark directory (go run ., go test).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("parse %s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// config is one invocation's settings.
type config struct {
	seed      int64
	workloads []string
	seconds   float64 // length of the timed phase of one run
	passes    int     // > 0 fixes the pass count instead of the time budget
	smoke     bool    // corpus x0.02, one pass, short cells
	modes     []bool  // traced flags to run, in order
	out       string  // directory for result, trace and scratch files
	stdout    io.Writer
	// corrupt makes every workload drop one match from one answer before
	// checking it: the test hook that shows a wrong answer fails the run.
	corrupt bool
}

// stamp identifies the commit, toolchain and machine a result came from.
type stamp struct {
	GitSHA     string         `json:"git_sha"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Passes     int            `json:"passes"`
	Smoke      bool           `json:"smoke"`
	Sizes      map[string]int `json:"sizes"`
}

func newStamp(cfg config) stamp {
	st := stamp{
		GitSHA: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, Passes: cfg.passes, Smoke: cfg.smoke,
		Sizes: map[string]int{},
	}
	// The driver's checkout is not a git repository; the stamp then says so.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.GitSHA = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}

// metricValue is one reported metric with the median, inter-quartile range
// and number of its samples (passes, cycles or set-ups) beside it. A traced
// run reports the median. An end-to-end run reports the best sample (the
// lowest when lower is better, else the highest), or what the workload
// derived from per-query floors (see floor).
//
// Why the best pass and not the median: on this shared two-core box a
// neighbour's load comes in bursts of seconds that only ever add time and can
// cover half a run, so the median over passes follows the neighbours (it
// moved by 10 to 30% between identical runs). The best pass sits on the
// code's own floor as soon as one pass ran undisturbed, repeats within a few
// percent, and still moves when the code itself gets slower. What it cannot
// show, a cost that hits only some passes, is what the median and IQR
// columns and the per-layer tail metrics are for.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	N      int     `json:"n"`
	// Samples are the per-pass values, in pass order, kept in the result
	// file so a noisy run can be told from a slow one afterwards.
	Samples []float64 `json:"samples"`
}

// runResult is one workload run in one mode (untraced or traced).
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is the state of one workload run.
type bench struct {
	cfg      config
	traced   bool
	rec      *recorder // nil in an untraced run
	sizes    map[string]int
	samples  map[string][]float64 // per pass, cycle or set-up
	reported map[string]float64   // values reported in place of the best or median sample
	higher   map[string]bool      // metrics for which higher is better
	floors   map[string]floor     // per-query floors of the bare engines
	third    int                  // which third of their list the bare engines answer next
	complain func(format string, args ...any)
	note     string // printed under the run's table

	attempted atomic.Int64
	failed    atomic.Int64
	corrupted atomic.Bool // the corrupt hook has fired
}

// add records one sample of a metric.
func (b *bench) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// report sets the value a metric is reported with, in place of the best of
// its samples; of several reports the better one stands.
func (b *bench) report(name string, v float64) {
	if old, ok := b.reported[name]; ok && (v > old) != b.higher[name] {
		return
	}
	b.reported[name] = v
}

// floor holds, for each query of a fixed list, the lowest latency (ns) any
// pass measured, +Inf until one did. The same query costs the same work
// every pass, so what is above its floor is interference; a burst has to hit
// a query in every pass to lift it. Statistics over the floors repeat far
// better on this box than the best whole pass, which needs a third of a
// second undisturbed.
type floor []float64

func newFloor(n int) floor {
	f := make(floor, n)
	for i := range f {
		f[i] = math.Inf(1)
	}
	return f
}

// observe lowers the floors of queries off, off+1, ... to lat where lower.
func (f floor) observe(off int, lat []float64) {
	for i, l := range lat {
		f[off+i] = min(f[off+i], l)
	}
}

// seen returns the floors of the queries observed so far.
func (f floor) seen() []float64 {
	var out []float64
	for _, l := range f {
		if !math.IsInf(l, 1) {
			out = append(out, l)
		}
	}
	return out
}

// fail counts one failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.complain(format, args...)
}

// scale shrinks a corpus or query count to x0.02 in a smoke run.
func (b *bench) scale(n int) int {
	if b.cfg.smoke {
		return max(n/50, 1)
	}
	return n
}

// cellDur is how long one timed loop around a public call runs.
func (b *bench) cellDur() time.Duration {
	if b.cfg.smoke {
		return 20 * time.Millisecond
	}
	return time.Second
}

// roundsPerRun is how often an untraced run sets up and measures: set-up
// time is repeatable only as the best of several, and spreading the timed
// passes over the whole run, one share after each set-up, is what lets some
// of them fall outside a neighbour's burst. A traced run reports no setup_s
// and sets up once.
func (b *bench) roundsPerRun() int {
	if b.traced || b.cfg.smoke {
		return 1
	}
	return 3
}

// timedPasses runs pass until the budget is spent (never fewer than three
// passes), or exactly cfg.passes times when that is set.
func (b *bench) timedPasses(budget time.Duration, pass func()) {
	start := time.Now()
	for i := 0; ; i++ {
		if b.cfg.passes > 0 {
			if i >= b.cfg.passes {
				return
			}
		} else if i >= 3 && time.Since(start) >= budget {
			return
		}
		pass()
	}
}

// rounds is the frame of every workload: roundsPerRun times, build the
// composition (recording setup_s, and mem_amp as heap held after set-up per
// corpus byte), run measure on it with an equal share of the run's timed
// seconds, and tear it down.
func (b *bench) rounds(corpus []string, build func() (teardown func(), err error), measure func(budget time.Duration) error) error {
	bytes := corpusBytes(corpus)
	n := b.roundsPerRun()
	for r := 0; r < n; r++ {
		before := heapHeld()
		start := time.Now()
		teardown, err := build()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.add("setup_s", time.Since(start).Seconds())
		b.add("mem_amp", float64(heapHeld()-before)/float64(bytes))
		if r == 0 {
			// Later rounds start from a heap that still holds what the
			// previous round's teardown has not yet let go of.
			b.report("mem_amp", b.samples["mem_amp"][0])
		}
		err = measure(time.Duration(b.cfg.seconds / float64(n) * float64(time.Second)))
		teardown()
		if err != nil {
			return err
		}
	}
	return nil
}

// cell times a loop of calls for at least cellDur and returns ns per unit,
// where one call of f does units units of work.
func (b *bench) cell(units int, f func(round int)) float64 {
	start := time.Now()
	rounds := 0
	for time.Since(start) < b.cellDur() {
		f(rounds)
		rounds++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*units)
}

// wrap inserts a span decorator named name when rec is set (a traced run).
func wrap(rec *recorder, name string, eng simsearch.Searcher) simsearch.Searcher {
	if rec == nil {
		return eng
	}
	return &tracedSearcher{inner: eng, name: name, rec: rec}
}

// check compares one answer with its reference and counts the operation.
func (b *bench) check(what string, got, want []simsearch.Match) {
	b.attempted.Add(1)
	if b.cfg.corrupt && len(got) > 0 && b.corrupted.CompareAndSwap(false, true) {
		got = got[:len(got)-1]
	}
	if !sameMatches(got, want) {
		b.fail("%s: %d matches, reference has %d", what, len(got), len(want))
	}
}

// verify runs the DP oracle over qs and counts every query as one operation.
func (b *bench) verify(what string, eng simsearch.Searcher, data []string, qs []simsearch.Query) {
	b.attempted.Add(int64(len(qs)))
	if err := simsearch.Verify(eng, data, qs); err != nil {
		b.fail("%s against the DP oracle: %v", what, err)
	}
}

func sameMatches(a, b []simsearch.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func corpusBytes(data []string) int {
	n := 0
	for _, s := range data {
		n += len(s)
	}
	return n
}

// heapHeld is the live heap after a collection.
func heapHeld() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// prime builds a router's lazily built engines now. The assertion keeps
// internal/router out of the benchmark's imports.
func prime(eng simsearch.Searcher) {
	if p, ok := eng.(interface{ Prime() }); ok {
		p.Prime()
	}
}

// freeze pins a router's fitted model: it keeps routing on what it learned
// in the warm passes but stops exploring and re-fitting. The end-to-end
// passes run frozen, because one explore probe of a hopeless arm (the
// BK-tree on a long read takes hundreds of times the routed engine) decides
// a short pass's wall time, and which pass pays it is the router's own
// schedule: unfrozen, qps of identical runs differed by a factor of two.
// The traced run leaves the router learning and reports what exploring costs
// (router.explore_share, router.regret).
func freeze(eng simsearch.Searcher) {
	if f, ok := eng.(interface{ SetFrozen(bool) }); ok {
		f.SetFrozen(true)
	}
}

// runtimeDelta measures allocation and collector work between two points.
type runtimeDelta struct {
	m   runtime.MemStats
	cpu [2]metrics.Sample // collector and total CPU seconds
}

func readCPU() (s [2]metrics.Sample) {
	s[0].Name, s[1].Name = "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"
	metrics.Read(s[:])
	return s
}

func startRuntime() *runtimeDelta {
	d := &runtimeDelta{cpu: readCPU()}
	runtime.ReadMemStats(&d.m)
	return d
}

// stop records allocations and bytes per operation, and the collector's
// share of the CPU time available over the interval.
func (d *runtimeDelta) stop(b *bench, ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cpu := readCPU()
	b.add("runtime.allocs_per_query", float64(m.Mallocs-d.m.Mallocs)/float64(ops))
	b.add("runtime.bytes_per_query", float64(m.TotalAlloc-d.m.TotalAlloc)/float64(ops))
	// The runtime refreshes its CPU classes at each collection, so an
	// interval without one shows no CPU time at all: its share is 0.
	gc, total := cpu[0].Value.Float64()-d.cpu[0].Value.Float64(), cpu[1].Value.Float64()-d.cpu[1].Value.Float64()
	if total > 0 {
		b.add("runtime.gc_cpu_share", gc/total)
	} else {
		b.add("runtime.gc_cpu_share", 0)
	}
}

// scrape reads the Prometheus text of a handler's /metrics into a map from
// `name{labels}` to value.
func scrape(h http.Handler) map[string]float64 {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// routerShares records, from two scrapes of a registry that holds router
// series, the share of queries each candidate engine was routed and the
// share of engine time spent on explore probes in between.
func (b *bench) routerShares(before, after map[string]float64) {
	delta := func(name, label string) float64 { return series(after, name, label) - series(before, name, label) }
	routes := delta("simsearch_router_routes_total", "")
	for _, e := range []string{"bitparallel", "trie", "bktree", "cascade"} {
		b.add("router.route_share."+e, ratio(delta("simsearch_router_routes_total", `engine="`+e+`"`), routes))
	}
	b.add("router.explore_share",
		ratio(delta("simsearch_router_explore_busy_seconds_total", ""), delta("simsearch_router_busy_seconds_total", "")))
}

// series sums every sample of the named series whose label set contains
// label (all of them when label is empty).
func series(m map[string]float64, name, label string) float64 {
	var sum float64
	for k, v := range m {
		base, labels, _ := strings.Cut(k, "{")
		if base == name && strings.Contains(labels, label) {
			sum += v
		}
	}
	return sum
}

// latencyStats records qps, p50_us and p95_us of one pass (and the p99 a
// traced run reports per layer).
func (b *bench) latencyStats(latNs []float64, wall time.Duration) {
	asc := sorted(latNs)
	b.add("qps", float64(len(asc))/wall.Seconds())
	b.add("p50_us", percentile(asc, 0.50)/1e3)
	b.add("p95_us", percentile(asc, 0.95)/1e3)
	b.add("client.p99_us", percentile(asc, 0.99)/1e3)
}

// reportLatencyFloors reports p50_us and p95_us over fully observed
// per-query floors.
func (b *bench) reportLatencyFloors(f floor) {
	asc := sorted(f)
	b.report("p50_us", percentile(asc, 0.50)/1e3)
	b.report("p95_us", percentile(asc, 0.95)/1e3)
}

// yardsticks times the bare scan over the next third of qs (a whole pass of
// the bare engines would leave too few passes for the workload's own path)
// and then the bare index over as many thirds as fit in the time the scan
// took, at least one: where the index is several times faster per query it
// gets the observations its memory-bound timings need. Every answer is
// checked.
func (b *bench) yardsticks(scan, index simsearch.Searcher, qs []simsearch.Query, ref [][]simsearch.Match) {
	scanTime := b.yardstick("scan_us_per_query", scan, qs, ref, b.third)
	var indexTime time.Duration
	for n := 0; n < 3 && (n == 0 || indexTime+indexTime/time.Duration(n) <= scanTime); n++ {
		indexTime += b.yardstick("index_us_per_query", index, qs, ref, (b.third+n)%3)
	}
	b.third = (b.third + 1) % 3
}

// yardstick times eng over one third of qs. Each call adds its mean time per
// query as a sample; the reported value is the mean of the per-query floors
// of qs seen so far.
func (b *bench) yardstick(metric string, eng simsearch.Searcher, qs []simsearch.Query, ref [][]simsearch.Match, third int) time.Duration {
	lo, hi := third*len(qs)/3, (third+1)*len(qs)/3
	got, lat, wall := searchAll(eng, qs[lo:hi])
	b.checkAll(metric, got, ref[lo:hi])
	b.add(metric, mean(lat)/1e3)
	if b.floors[metric] == nil {
		b.floors[metric] = newFloor(len(qs))
	}
	b.floors[metric].observe(lo, lat)
	b.report(metric, mean(b.floors[metric].seen())/1e3)
	return wall
}

// result folds the samples into the metrics this mode reports. A per-layer
// metric of a layer the workload does not cross reads 0; an end-to-end
// metric without samples is a bug in the workload.
func (b *bench) result(spec *benchSpec, workload string) (runResult, error) {
	res := runResult{
		Workload: workload, Traced: b.traced,
		Attempted: b.attempted.Load(), Failed: b.failed.Load(),
		Metrics: map[string]metricValue{},
	}
	for _, m := range spec.metrics(b.traced) {
		xs := b.samples[m.Name]
		if len(xs) == 0 && !b.traced {
			return res, fmt.Errorf("%s: end-to-end metric %s was not measured", workload, m.Name)
		}
		v := metricValue{Unit: m.Unit, Median: median(xs), IQR: iqr(xs), N: len(xs), Samples: xs}
		if r, ok := b.reported[m.Name]; ok {
			v.Value = r
		} else if b.traced {
			// Per-layer figures gate nothing, and many are differences or
			// ratios of two timings, for which "best" has no meaning.
			v.Value = v.Median
		} else if asc := sorted(xs); len(asc) > 0 {
			v.Value = asc[0]
			if m.Better == "higher" {
				v.Value = asc[len(asc)-1]
			}
		}
		res.Metrics[m.Name] = v
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("%s: no operation attempted", workload)
	}
	return res, nil
}

// print writes the run as a table, then as the one-line JSON object the
// driver reads.
func (r runResult) print(w io.Writer, note string) error {
	mode := "end-to-end (tracing off)"
	if r.Traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s: %s ==\n", r.Workload, mode)
	fmt.Fprintf(w, "%-34s %-10s %14s %14s %12s %4s\n", "metric", "unit", "value", "median", "iqr", "n")
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if m.N == 0 {
			continue // a layer this workload does not cross; the JSON line reports it as 0
		}
		fmt.Fprintf(w, "%-34s %-10s %14.6g %14.6g %12.4g %4d\n", n, m.Unit, m.Value, m.Median, m.IQR, m.N)
	}
	fmt.Fprintf(w, "%-34s %-10s %14.6g %14s %12s %4d\n", "failed_ratio", "ratio",
		float64(r.Failed)/float64(r.Attempted), "-", "-", r.Attempted)

	fmt.Fprint(w, note)

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for n, m := range r.Metrics {
		line.Metrics[n] = mv{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("%s: %w", r.Workload, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
