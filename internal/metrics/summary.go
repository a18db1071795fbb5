package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary describes a sample of durations: the offline counterpart of a
// Histogram, with exact percentiles, mean and standard deviation of recorded
// per-query latencies. The benchmark harness reports it beyond the paper's
// plain totals, which hide effects such as the k=16 DNA queries dominating a
// mixed batch.
type Summary struct {
	Count         int
	Min, Max      time.Duration
	Mean          time.Duration
	Std           time.Duration
	P50, P90, P99 time.Duration
	Total         time.Duration
}

// Summarize computes a Summary. The input is not modified.
func Summarize(samples []time.Duration) Summary {
	var s Summary
	s.Count = len(samples)
	if s.Count == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	var total float64
	for _, d := range sorted {
		total += float64(d)
	}
	s.Total = time.Duration(total)
	mean := total / float64(s.Count)
	s.Mean = time.Duration(mean)
	var varsum float64
	for _, d := range sorted {
		diff := float64(d) - mean
		varsum += diff * diff
	}
	s.Std = time.Duration(math.Sqrt(varsum / float64(s.Count)))
	s.P50 = percentile(sorted, 0.50)
	s.P90 = percentile(sorted, 0.90)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// percentile returns the nearest-rank percentile of a sorted sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d total=%v mean=%v ±%v p50=%v p90=%v p99=%v max=%v",
		s.Count, s.Total.Round(time.Microsecond), s.Mean.Round(time.Microsecond),
		s.Std.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P90.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}
