package metrics

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// defMaxQueryLen is how many bytes of the query text a slow-query line keeps.
const defMaxQueryLen = 64

// SlowLog writes one text line per query whose latency exceeds a threshold,
// the operational complement of the histograms: the histogram says *that*
// the tail is slow, the slow-query log says *which queries* are in it.
//
// A nil *SlowLog is valid and discards everything, so call sites can
// observe unconditionally. The fast path for sub-threshold queries is a
// nil check plus one comparison; only actual slow queries take the write
// lock.
type SlowLog struct {
	threshold time.Duration
	maxQuery  int

	mu sync.Mutex
	w  io.Writer

	logged Counter // lines written, exported as a scrape-able counter
}

// NewSlowLog builds a slow-query log writing to w for queries slower than
// threshold. A non-positive threshold disables the log (nil is returned, and
// nil receivers are safe).
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if threshold <= 0 || w == nil {
		return nil
	}
	return &SlowLog{threshold: threshold, maxQuery: defMaxQueryLen, w: w}
}

// Observe logs the query if d exceeds the threshold. endpoint names the
// serving endpoint ("" for shard-level observations), shard is the shard
// index (negative for whole-request observations), and query is truncated
// to defMaxQueryLen bytes. Safe for concurrent use and for nil receivers.
func (l *SlowLog) Observe(endpoint, engine string, shard int, query string, k int, d time.Duration) {
	if l == nil || d < l.threshold {
		return
	}
	q := query
	truncated := ""
	if len(q) > l.maxQuery {
		q = q[:l.maxQuery]
		truncated = "…"
	}
	line := fmt.Sprintf("slowquery took=%v threshold=%v", d.Round(time.Microsecond), l.threshold)
	if endpoint != "" {
		line += " endpoint=" + endpoint
	}
	if engine != "" {
		line += " engine=" + engine
	}
	if shard >= 0 {
		line += fmt.Sprintf(" shard=%d", shard)
	}
	line += fmt.Sprintf(" k=%d q=%q%s\n", k, q, truncated)
	l.mu.Lock()
	io.WriteString(l.w, line)
	l.mu.Unlock()
	l.logged.Inc()
}

// Register exposes the log's line counter on reg.
func (l *SlowLog) Register(reg *Registry) {
	if l == nil || reg == nil {
		return
	}
	reg.CounterFunc("simsearch_slow_queries_total",
		"Queries logged by the slow-query log (latency over the configured threshold).",
		func() float64 { return float64(l.logged.Value()) })
}
