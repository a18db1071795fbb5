package metrics

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Registry holds named metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). Registration is idempotent: asking
// for a counter that already exists under the same name and labels returns
// the existing instance, so wiring code can re-run safely. Registering the
// same name with a different metric kind panics — that is a programming
// error, not a runtime condition.
//
// A Registry is a view: With returns one that shares the same families and
// adds its labels to every series registered through it.
type Registry struct {
	*families
	labels []Label
}

// families is the state every view of one registry shares.
type families struct {
	mu     sync.Mutex
	byName map[string]*family
	order  []*family
}

// family is all series sharing one metric name.
type family struct {
	name, help, kind string
	series           map[string]*series // by canonical label key
	order            []*series
}

// series is one labelled instance within a family. Exactly one of the
// value sources is set.
type series struct {
	key   string // canonical label rendering, "" when unlabelled
	ctr   *Counter
	gauge *Gauge
	hist  *Histogram
	fn    func() float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: &families{byName: make(map[string]*family)}}
}

// With returns a view of r that adds labels to every series registered
// through it, e.g. one shard's engine registering under shard="i".
func (r *Registry) With(labels ...Label) *Registry {
	return &Registry{families: r.families, labels: append(slices.Clip(r.labels), labels...)}
}

// lookup returns the family for name, creating it with the given kind, the
// canonical key of labels plus the view's own, and the existing series under
// that key (nil if absent).
func (r *Registry) lookup(name, help, kind string, labels []Label) (*family, string, *series) {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.byName[name] = f
		r.order = append(r.order, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	key := labelKey(append(slices.Clip(r.labels), labels...))
	return f, key, f.series[key]
}

func (f *family) add(s *series) {
	f.series[s.key] = s
	f.order = append(f.order, s)
}

// Counter registers (or returns the existing) counter under name and labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, s := r.lookup(name, help, "counter", labels)
	if s != nil {
		return s.ctr
	}
	c := &Counter{}
	f.add(&series{key: key, ctr: c})
	return c
}

// Gauge registers (or returns the existing) gauge under name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, s := r.lookup(name, help, "gauge", labels)
	if s != nil {
		return s.gauge
	}
	g := &Gauge{}
	f.add(&series{key: key, gauge: g})
	return g
}

// Histogram registers (or returns the existing) histogram under name and
// labels, with the given bucket bounds (DefLatencyBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, s := r.lookup(name, help, "histogram", labels)
	if s != nil {
		return s.hist
	}
	h := NewHistogram(bounds)
	f.add(&series{key: key, hist: h})
	return h
}

// RegisterHistogram exposes an externally owned histogram (e.g. a shard
// counter's latency histogram) under name and labels. Re-registering the
// same name+labels replaces nothing and keeps the first instance.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, s := r.lookup(name, help, "histogram", labels)
	if s != nil {
		return
	}
	f.add(&series{key: key, hist: h})
}

// CounterFunc exposes a counter whose value is read from fn at scrape time
// (used to export counters owned by other packages without duplication).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, s := r.lookup(name, help, "counter", labels)
	if s != nil {
		return
	}
	f.add(&series{key: key, fn: fn})
}

// GaugeFunc exposes a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, s := r.lookup(name, help, "gauge", labels)
	if s != nil {
		return
	}
	f.add(&series{key: key, fn: fn})
}

// WriteTo renders every registered family in the Prometheus text format.
// Families appear in registration order; series within a family in
// registration order. The scrape is not atomic across metrics (each value is
// loaded individually), which is exactly the consistency Prometheus expects.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	var sb strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.order {
			s.write(&sb, f.name)
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// write renders one series.
func (s *series) write(sb *strings.Builder, name string) {
	switch {
	case s.ctr != nil:
		writeSample(sb, name, s.key, "", float64(s.ctr.Value()))
	case s.gauge != nil:
		writeSample(sb, name, s.key, "", float64(s.gauge.Value()))
	case s.fn != nil:
		writeSample(sb, name, s.key, "", s.fn())
	case s.hist != nil:
		snap := s.hist.Snapshot()
		var cum uint64
		for i, b := range snap.Bounds {
			cum += snap.Counts[i]
			writeSample(sb, name+"_bucket", s.key,
				`le="`+formatFloat(b.Seconds())+`"`, float64(cum))
		}
		writeSample(sb, name+"_bucket", s.key, `le="+Inf"`, float64(snap.Count))
		writeSample(sb, name+"_sum", s.key, "", snap.Sum.Seconds())
		writeSample(sb, name+"_count", s.key, "", float64(snap.Count))
	}
}

// writeSample renders one `name{labels} value` line. extra is an extra
// pre-rendered label (the histogram le) appended after the series labels.
func writeSample(sb *strings.Builder, name, key, extra string, v float64) {
	sb.WriteString(name)
	if key != "" || extra != "" {
		sb.WriteByte('{')
		sb.WriteString(key)
		if key != "" && extra != "" {
			sb.WriteByte(',')
		}
		sb.WriteString(extra)
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry as a text-format
// scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
