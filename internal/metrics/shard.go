package metrics

import (
	"sync/atomic"
	"time"
)

// ShardCounter accumulates lock-free per-shard serving metrics: how many
// queries a shard has answered, how many matches it produced, and how long it
// has been busy. All methods are safe for concurrent use; the executor calls
// Observe from whichever pool worker happens to run the shard task.
//
// A ShardCounter built with NewShardCounter additionally keeps a fixed-bucket
// latency histogram (the totals say how busy a shard was; the histogram says
// how that time was distributed across queries). The zero value still works
// and skips the histogram.
type ShardCounter struct {
	queries atomic.Uint64
	matches atomic.Uint64
	busy    atomic.Int64 // cumulative nanoseconds inside Search
	lat     *Histogram
}

// NewShardCounter builds a counter with a latency histogram over the default
// serving buckets.
func NewShardCounter() *ShardCounter {
	return &ShardCounter{lat: NewHistogram(DefLatencyBuckets)}
}

// Latency returns the counter's latency histogram (nil for zero-value
// counters).
func (c *ShardCounter) Latency() *Histogram { return c.lat }

// Observe records one answered query that produced matches results and took d.
func (c *ShardCounter) Observe(matches int, d time.Duration) {
	c.queries.Add(1)
	c.matches.Add(uint64(matches))
	c.busy.Add(int64(d))
	if c.lat != nil {
		c.lat.Observe(d)
	}
}

// Snapshot returns a consistent-enough point-in-time copy for reporting.
// (Fields are read individually; the counter keeps running underneath.)
func (c *ShardCounter) Snapshot() ShardSnapshot {
	s := ShardSnapshot{
		Queries: c.queries.Load(),
		Matches: c.matches.Load(),
		Busy:    time.Duration(c.busy.Load()),
	}
	if c.lat != nil {
		s.Latency = c.lat.Snapshot()
	}
	return s
}

// ShardSnapshot is a point-in-time copy of a ShardCounter. Latency is the
// histogram snapshot (zero Count when the counter has no histogram).
type ShardSnapshot struct {
	Queries uint64            `json:"queries"`
	Matches uint64            `json:"matches"`
	Busy    time.Duration     `json:"busy_ns"`
	Latency HistogramSnapshot `json:"-"`
}

// Throughput returns queries per second of busy time (0 when idle).
func (s ShardSnapshot) Throughput() float64 {
	if s.Busy <= 0 {
		return 0
	}
	return float64(s.Queries) / s.Busy.Seconds()
}

// MeanLatency returns the average time per answered query (0 when idle).
func (s ShardSnapshot) MeanLatency() time.Duration {
	if s.Queries == 0 {
		return 0
	}
	return s.Busy / time.Duration(s.Queries)
}
