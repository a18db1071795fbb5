package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterObserveSnapshot(t *testing.T) {
	var c ShardCounter
	c.Observe(3, 2*time.Millisecond)
	c.Observe(0, time.Millisecond)
	s := c.Snapshot()
	if s.Queries != 2 || s.Matches != 3 || s.Busy != 3*time.Millisecond {
		t.Errorf("snapshot = %+v", s)
	}
	if got := s.MeanLatency(); got != 1500*time.Microsecond {
		t.Errorf("MeanLatency = %v", got)
	}
	if tp := s.Throughput(); tp < 600 || tp > 700 { // 2 queries / 3ms ≈ 666.7 qps
		t.Errorf("Throughput = %v", tp)
	}
}

func TestCounterZeroValues(t *testing.T) {
	var s ShardSnapshot
	if s.Throughput() != 0 || s.MeanLatency() != 0 {
		t.Error("zero snapshot must report zero rates")
	}
}

func TestCounterHistogram(t *testing.T) {
	c := NewShardCounter()
	if c.Latency() == nil {
		t.Fatal("NewShardCounter has no latency histogram")
	}
	c.Observe(1, 200*time.Microsecond)
	c.Observe(2, 30*time.Millisecond)
	s := c.Snapshot()
	if s.Latency.Count != 2 {
		t.Fatalf("latency count = %d, want 2", s.Latency.Count)
	}
	if s.Latency.Sum != 30200*time.Microsecond {
		t.Errorf("latency sum = %v", s.Latency.Sum)
	}
	if p99 := s.Latency.Quantile(0.99); p99 < time.Millisecond {
		t.Errorf("p99 = %v, want in the tens of milliseconds", p99)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c ShardCounter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Observe(1, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Queries != 8000 || s.Matches != 8000 || s.Busy != 8000*time.Microsecond {
		t.Errorf("concurrent snapshot = %+v", s)
	}
}
