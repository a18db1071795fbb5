package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.String() != "no samples" {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]time.Duration{5 * time.Millisecond})
	if s.Count != 1 || s.Min != 5*time.Millisecond || s.Max != s.Min ||
		s.Mean != s.Min || s.P50 != s.Min || s.P99 != s.Min || s.Std != 0 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	// 1..10 ms.
	var in []time.Duration
	for i := 1; i <= 10; i++ {
		in = append(in, time.Duration(i)*time.Millisecond)
	}
	s := Summarize(in)
	if s.Total != 55*time.Millisecond {
		t.Errorf("Total = %v", s.Total)
	}
	if s.Mean != 5500*time.Microsecond {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.P50 != 5*time.Millisecond { // nearest-rank: ceil(0.5*10)=5th
		t.Errorf("P50 = %v", s.P50)
	}
	if s.P90 != 9*time.Millisecond {
		t.Errorf("P90 = %v", s.P90)
	}
	if s.P99 != 10*time.Millisecond {
		t.Errorf("P99 = %v", s.P99)
	}
	if s.Min != time.Millisecond || s.Max != 10*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []time.Duration{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("input mutated")
	}
}

func TestStringRendersAllFields(t *testing.T) {
	s := Summarize([]time.Duration{time.Millisecond, 2 * time.Millisecond})
	out := s.String()
	for _, want := range []string{"n=2", "total=", "p50=", "p99=", "max="} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q: %s", want, out)
		}
	}
}

func TestPercentileEdges(t *testing.T) {
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile != 0")
	}
	sorted := []time.Duration{1, 2, 3}
	if percentile(sorted, 0) != 1 {
		t.Errorf("p0 = %v", percentile(sorted, 0))
	}
	if percentile(sorted, 1) != 3 {
		t.Errorf("p100 = %v", percentile(sorted, 1))
	}
}

func TestQuickSummaryInvariants(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		in := make([]time.Duration, n)
		for i := range in {
			in[i] = time.Duration(r.Intn(1_000_000))
		}
		s := Summarize(in)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 &&
			s.P99 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Count == n
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
