package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	obs := []time.Duration{
		500 * time.Microsecond,  // bucket 0
		time.Millisecond,        // bucket 0 (le is inclusive)
		2 * time.Millisecond,    // bucket 1
		50 * time.Millisecond,   // bucket 2
		500 * time.Millisecond,  // +Inf bucket
		1500 * time.Millisecond, // +Inf bucket
	}
	for _, d := range obs {
		h.Observe(d)
	}
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	var sum time.Duration
	for _, d := range obs {
		sum += d
	}
	if s.Sum != sum {
		t.Errorf("sum = %v, want %v", s.Sum, sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond})
	// 90 observations in the first bucket, 10 in the second.
	for i := 0; i < 90; i++ {
		h.Observe(200 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 <= 0 || p50 > time.Millisecond {
		t.Errorf("p50 = %v, want within first bucket", p50)
	}
	if p99 := s.Quantile(0.99); p99 <= time.Millisecond || p99 > 10*time.Millisecond {
		t.Errorf("p99 = %v, want within second bucket", p99)
	}
	// Everything in +Inf reports the largest finite bound.
	h2 := NewHistogram([]time.Duration{time.Millisecond})
	h2.Observe(time.Second)
	if q := h2.Snapshot().Quantile(0.5); q != time.Millisecond {
		t.Errorf("+Inf quantile = %v, want %v", q, time.Millisecond)
	}
	// Empty histogram.
	if q := NewHistogram(nil).Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	NewHistogram([]time.Duration{time.Second, time.Millisecond})
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app_requests_total", "Requests served.", L("endpoint", "search"))
	c.Add(3)
	g := reg.Gauge("app_inflight", "In-flight requests.")
	g.Inc()
	g.Inc()
	h := reg.Histogram("app_latency_seconds", "Latency.",
		[]time.Duration{time.Millisecond, time.Second}, L("endpoint", "search"))
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Second)
	reg.CounterFunc("app_derived_total", "Derived.", func() float64 { return 42 })

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP app_requests_total Requests served.\n",
		"# TYPE app_requests_total counter\n",
		`app_requests_total{endpoint="search"} 3` + "\n",
		"# TYPE app_inflight gauge\n",
		"app_inflight 2\n",
		"# TYPE app_latency_seconds histogram\n",
		`app_latency_seconds_bucket{endpoint="search",le="0.001"} 1` + "\n",
		`app_latency_seconds_bucket{endpoint="search",le="1"} 1` + "\n",
		`app_latency_seconds_bucket{endpoint="search",le="+Inf"} 2` + "\n",
		`app_latency_seconds_sum{endpoint="search"} 2.0005` + "\n",
		`app_latency_seconds_count{endpoint="search"} 2` + "\n",
		"app_derived_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "", L("e", "a"))
	b := reg.Counter("x_total", "", L("e", "a"))
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	if c := reg.Counter("x_total", "", L("e", "b")); c == a {
		t.Error("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	reg.Gauge("x_total", "")
}

// TestRegistryWith: a labelled view registers into the same families with
// its labels added, so two shards' engines registering one series name
// export one family with a series per shard.
func TestRegistryWith(t *testing.T) {
	reg := NewRegistry()
	for _, shard := range []string{"0", "1"} {
		v := reg.With(L("shard", shard))
		v.Counter("q_total", "queries").Add(2)
		v.CounterFunc("stage_total", "", func() float64 { return 3 }, L("stage", "len"))
		v.With(L("z", "x")).Gauge("g", "").Inc()
	}
	reg.Counter("q_total", "").Inc()
	var sb strings.Builder
	reg.WriteTo(&sb)
	for _, want := range []string{
		"q_total{shard=\"0\"} 2\nq_total{shard=\"1\"} 2\nq_total 1\n",
		`stage_total{shard="0",stage="len"} 3`,
		`stage_total{shard="1",stage="len"} 3`,
		`g{shard="1",z="x"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	if n := strings.Count(sb.String(), "# TYPE q_total"); n != 1 {
		t.Errorf("q_total declared %d times, want one family", n)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "", L("q", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	reg.WriteTo(&sb)
	want := `esc_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaping: got %q, want substring %q", sb.String(), want)
	}
}

func TestSlowLog(t *testing.T) {
	var sb strings.Builder
	l := NewSlowLog(&sb, 10*time.Millisecond)
	l.Observe("topk", "trie/compressed", -1, "berlin", 2, time.Millisecond) // fast: dropped
	if sb.Len() != 0 || l.logged.Value() != 0 {
		t.Fatalf("fast query logged: %q", sb.String())
	}
	long := strings.Repeat("x", 200)
	l.Observe("topk", "trie/compressed", 3, long, 2, 50*time.Millisecond)
	line := sb.String()
	for _, want := range []string{
		"slowquery", "took=50ms", "endpoint=topk", "engine=trie/compressed",
		"shard=3", "k=2", `q="` + strings.Repeat("x", defMaxQueryLen) + `"…`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow line missing %q: %q", want, line)
		}
	}
	if strings.Contains(line, strings.Repeat("x", defMaxQueryLen+1)) {
		t.Error("query text not truncated")
	}
	if n := l.logged.Value(); n != 1 {
		t.Errorf("logged = %d, want 1", n)
	}
	// shard < 0 omits the shard field; endpoint "" omits endpoint.
	sb.Reset()
	l.Observe("", "scan", -1, "q", 1, time.Second)
	if line := sb.String(); strings.Contains(line, "shard=") || strings.Contains(line, "endpoint=") {
		t.Errorf("unexpected fields in %q", line)
	}

	// Disabled logs are nil and safe.
	if NewSlowLog(&sb, 0) != nil {
		t.Error("zero threshold should disable the log")
	}
	var nilLog *SlowLog
	nilLog.Observe("e", "x", 0, "q", 1, time.Hour)
}

func TestSlowLogRegister(t *testing.T) {
	var sb strings.Builder
	l := NewSlowLog(&sb, time.Millisecond)
	reg := NewRegistry()
	l.Register(reg)
	l.Observe("search", "scan", -1, "q", 2, time.Second)
	var out strings.Builder
	reg.WriteTo(&out)
	if !strings.Contains(out.String(), "simsearch_slow_queries_total 1") {
		t.Fatalf("slow counter not exported:\n%s", out.String())
	}
}
