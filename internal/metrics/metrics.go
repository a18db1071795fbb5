// Package metrics is the serving-path observability layer: lock-free atomic
// counters and gauges, fixed-bucket latency histograms, a Prometheus
// text-format registry, and a slow-query log. The paper's whole argument is
// measured latency; this package makes the serving path report the
// distributions its tables are built from, continuously and under load,
// instead of only in offline benchmark runs.
//
// All observation paths (Counter.Inc, Gauge.Add, Histogram.Observe) are a
// handful of atomic operations with no locks and no allocation, so they can
// sit on the per-request and per-shard hot paths. Registration and exposition
// take a registry lock; both happen off the hot path (wiring time and scrape
// time).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (in-flight requests, pool depth).
// The zero value is ready to use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets are the default histogram bounds for query and request
// latencies: roughly logarithmic from 50µs to 5s, bracketing everything from
// a single short comparison batch to the paper's slowest DNA scans. The
// +Inf bucket is implicit.
var DefLatencyBuckets = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond, 5 * time.Second,
}

// Histogram is a fixed-bucket latency histogram: one atomic counter per
// bucket plus an atomic sum and count. Observe is lock-free; Snapshot reads
// the buckets individually (consistent enough for reporting, exactly like
// ShardCounter.Snapshot).
type Histogram struct {
	bounds []time.Duration // sorted upper bounds; +Inf bucket is counts[len(bounds)]
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram over the given bucket upper bounds, which
// must be positive and strictly increasing (DefLatencyBuckets when nil).
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Counts are
// per-bucket (not cumulative); Counts[len(Bounds)] is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []time.Duration
	Counts []uint64
	Count  uint64
	Sum    time.Duration
}

// Quantile approximates the q-quantile (0 < q <= 1) from the buckets: the
// target rank is located by the nearest-rank rule (rank ⌈q·n⌉), then
// interpolated linearly inside its bucket. Observations in the
// +Inf bucket report the largest finite bound (the histogram cannot know
// more).
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := float64(rank-prev) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Label is one name="value" pair attached to a metric.
type Label struct {
	Name, Value string
}

// L builds a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// labelKey renders labels in canonical (sorted, escaped) form, used both as
// the registry identity key and in the exposition output.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteString(`"`)
	}
	return sb.String()
}

// escapeLabel applies the Prometheus text-format label escaping rules.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
