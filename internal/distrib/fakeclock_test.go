package distrib

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/httpapi"
)

// fakeClock is a clock that moves only when the test advances it. It
// announces every timer it arms on armed and every timer stopped before it
// fired on stopped, so a test waits for the coordinator to reach a timer
// before it moves time past it. Both are buffered past what one test arms,
// so an announcement no test waits for never blocks the coordinator.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	timers  []*fakeTimer
	armed   chan struct{}
	stopped chan struct{}
}

type fakeTimer struct {
	when time.Time
	c    chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1e9, 0), armed: make(chan struct{}, 16), stopped: make(chan struct{}, 16)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) NewTimer(d time.Duration) (<-chan time.Time, func() bool) {
	t := &fakeTimer{c: make(chan time.Time, 1)}
	f.mu.Lock()
	t.when = f.now.Add(d)
	f.timers = append(f.timers, t)
	f.mu.Unlock()
	f.armed <- struct{}{}
	return t.c, func() bool {
		f.mu.Lock()
		n := len(f.timers)
		f.timers = slices.DeleteFunc(f.timers, func(u *fakeTimer) bool { return u == t })
		live := len(f.timers) < n
		f.mu.Unlock()
		if live {
			f.stopped <- struct{}{}
		}
		return live
	}
}

// Advance moves the clock by d and fires the timers due by then. It returns
// how many fired.
func (f *fakeClock) Advance(d time.Duration) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	pending := f.timers[:0]
	fired := 0
	for _, t := range f.timers {
		if t.when.After(f.now) {
			pending = append(pending, t)
			continue
		}
		t.c <- f.now // never blocks: one send into a buffer of one
		fired++
	}
	f.timers = pending
	return fired
}

// memFleet answers the coordinator's RPCs in process, no sockets: each
// replica URL maps to an httpapi server, behind a hook that may take the
// request over. An attempt whose context is done fails with the context's
// error, as net/http's client does.
type memFleet struct {
	replicas map[string]http.Handler
	hook     func(url string, w http.ResponseWriter, r *http.Request) bool
}

func (m *memFleet) RoundTrip(r *http.Request) (*http.Response, error) {
	url := r.URL.Scheme + "://" + r.URL.Host
	rec := httptest.NewRecorder()
	if m.hook == nil || !m.hook(url, rec, r) {
		m.replicas[url].ServeHTTP(rec, r)
	}
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	return rec.Result(), nil
}

// newMemCoordinator builds a coordinator on clk over one shard of data
// served by the given replica URLs, each an httpapi server over the same
// engine.
func newMemCoordinator(t *testing.T, data []string, clk *fakeClock, opts Options, urls ...string) (*Coordinator, *memFleet) {
	t.Helper()
	fleet := &memFleet{replicas: map[string]http.Handler{}}
	srv := httpapi.New(core.NewSequential(data), data)
	for _, u := range urls {
		fleet.replicas[u] = srv
	}
	opts.transport, opts.clock = fleet, clk
	c, err := New([]ShardSpec{{Replicas: urls, Count: len(data)}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, fleet
}

// serveBatch runs one batch through the coordinator's handler.
func serveBatch(c *Coordinator, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search/batch", strings.NewReader(body)))
	return rec
}

// recv waits for ch, failing the test after a deadline instead of hanging.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestHedgeRescuesStuckReplica runs the hedge on a fake clock. The shard's
// latency histogram is primed, so the hedge delay is its quantile. The first
// batch RPC sticks until its context is cancelled. The hedge must not fire
// at delay − 1ns and must fire at delay; the hedge's answer is the answer;
// the stuck loser is cancelled and counts neither as an error nor toward its
// replica's breaker.
func TestHedgeRescuesStuckReplica(t *testing.T) {
	data := dataset.Cities(60, 13)
	clk := newFakeClock()
	opts := Options{HedgeQuantile: 0.9, HedgeMin: time.Millisecond}
	c, fleet := newMemCoordinator(t, data, clk, opts, "http://r0", "http://r1")
	sh := c.shards[0]
	for i := 0; i < minHedgeSamples; i++ {
		sh.lat.Observe(20 * time.Millisecond)
	}
	delay := sh.hedgeDelay(opts.HedgeQuantile, opts.HedgeMin)
	if delay <= opts.HedgeMin {
		t.Fatalf("hedge delay %v is the floor: the histogram is not primed", delay)
	}

	body := `{"queries":[{"q":"` + data[0] + `","k":1}]}`
	want := httptest.NewRecorder()
	fleet.replicas["http://r0"].ServeHTTP(want, httptest.NewRequest(http.MethodPost, "/search/batch", strings.NewReader(body)))
	var wantResp httpapi.BatchResponse
	if err := json.NewDecoder(want.Body).Decode(&wantResp); err != nil {
		t.Fatal(err)
	}

	batches := make(chan string, 2) // the replica each of the two batch RPCs reached
	var n atomic.Int32
	cancelled := make(chan struct{})
	fleet.hook = func(url string, w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/search/batch" {
			return false
		}
		first := n.Add(1) == 1 // before the send: the test acts on the send
		batches <- url
		if !first {
			return false
		}
		<-r.Context().Done()
		close(cancelled)
		return true
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- serveBatch(c, body) }()
	recv(t, clk.armed, "the hedge timer")
	loser := recv(t, batches, "the primary attempt")
	if n := clk.Advance(delay - time.Nanosecond); n != 0 {
		t.Fatalf("%d timers fired at %v, 1ns before the hedge delay", n, delay-time.Nanosecond)
	}
	if n := sh.hedges.Value(); n != 0 {
		t.Fatalf("%d hedges before the hedge delay", n)
	}
	if n := clk.Advance(time.Nanosecond); n != 1 {
		t.Fatalf("%d timers fired at the hedge delay %v, want the hedge's", n, delay)
	}
	rec := recv(t, done, "the hedged answer")
	select {
	case <-cancelled:
	default:
		t.Fatal("the call returned and the stuck loser's context is not cancelled")
	}
	if winner := recv(t, batches, "the hedge attempt"); winner == loser {
		t.Errorf("the hedge went to %s, the stuck replica itself", winner)
	}

	var got httpapi.BatchResponse
	if err := json.NewDecoder(rec.Body).Decode(&got); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("status %d, decode error %v", rec.Code, err)
	}
	gb, _ := json.Marshal(got.Results)
	wb, _ := json.Marshal(wantResp.Results)
	if string(gb) != string(wb) || len(wantResp.Results[0].Matches) == 0 {
		t.Errorf("hedged results %s, want the shard's %s", gb, wb)
	}
	if h, w, r := sh.hedges.Value(), sh.hedgeWins.Value(), sh.rpcs.Value(); h != 1 || w != 1 || r != 2 {
		t.Errorf("hedges %d, hedge_wins %d, rpcs %d; want 1, 1, 2", h, w, r)
	}
	if n := sh.errs.Value(); n != 0 {
		t.Errorf("the cancelled loser counts as %d errors", n)
	}
	for _, rep := range sh.replicas {
		if n := rep.fails.Load(); n != 0 {
			t.Errorf("replica %s has %d failures toward its breaker", rep.url, n)
		}
	}
}

// TestBreakerOpensAndRecovers runs a replica's circuit breaker on a fake
// clock. Replica 0 fails every batch: each request routed to it fails over
// to replica 1 and still answers. The breaker opens at the third consecutive
// failure, after which replica 0 gets no traffic. It is down 1ns before the
// cooldown ends and up when it ends, and a success closes it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	const threshold = 3
	data := dataset.Cities(40, 19)
	clk := newFakeClock()
	cooldown := time.Minute
	c, fleet := newMemCoordinator(t, data, clk, Options{BreakerCooldown: cooldown}, "http://r0", "http://r1")
	var sick atomic.Bool
	var r0 atomic.Int32 // batch RPCs replica 0 received
	sick.Store(true)
	fleet.hook = func(url string, w http.ResponseWriter, r *http.Request) bool {
		if url != "http://r0" || r.URL.Path != "/search/batch" {
			return false
		}
		r0.Add(1)
		if sick.Load() {
			http.Error(w, "sick", http.StatusInternalServerError)
			return true
		}
		return false
	}
	rep0 := c.shards[0].replicas[0]
	// reachR0 sends batches until one reaches replica 0, one round of the
	// round robin at most, and reports whether one did.
	reachR0 := func() bool {
		before := r0.Load()
		for range c.shards[0].replicas {
			if rec := serveBatch(c, `{"queries":[{"q":"`+data[0]+`","k":1}]}`); rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if r0.Load() > before {
				return true
			}
		}
		return false
	}
	up := func() bool {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st statsResponse
		if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Shards[0].Replicas[0].Up
	}

	for i := 0; i < threshold; i++ {
		if !up() {
			t.Fatalf("replica 0 is down after %d failures, want its breaker to open at %d", i, threshold)
		}
		if !reachR0() {
			t.Fatalf("no request reached replica 0 after %d failures", i)
		}
	}
	if up() {
		t.Fatalf("replica 0 is up after %d consecutive failures", threshold)
	}
	if reachR0() {
		t.Fatal("a request reached replica 0 while its breaker is open")
	}
	if n := c.shards[0].errs.Value(); n != threshold {
		t.Errorf("%d errors booked, want %d", n, threshold)
	}

	clk.Advance(cooldown - time.Nanosecond)
	if up() {
		t.Fatalf("replica 0 is up 1ns before its %v cooldown ends", cooldown)
	}
	clk.Advance(time.Nanosecond)
	if !up() {
		t.Fatalf("replica 0 is down when its %v cooldown ends", cooldown)
	}

	sick.Store(false)
	if !reachR0() {
		t.Fatal("no request reached replica 0 after its cooldown")
	}
	if du, n := rep0.downUntil.Load(), rep0.fails.Load(); du != 0 || n != 0 {
		t.Errorf("after a success replica 0 has downUntil %d and %d failures, want a closed breaker", du, n)
	}
}

// TestProberStopsWithItsContext runs the health prober on a fake clock: each
// tick is one sweep of /healthz. After three ticks and three sweeps its
// context is cancelled, and the prober must stop its timer and sweep no more.
// A prober loop that ignored ctx would outlive it.
func TestProberStopsWithItsContext(t *testing.T) {
	clk := newFakeClock()
	c, fleet := newMemCoordinator(t, []string{"a"}, clk, Options{}, "http://shard")
	var probes atomic.Int64
	fleet.hook = func(_ string, _ http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path == "/healthz" {
			probes.Add(1)
		}
		return false
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.StartProber(ctx, time.Second)
	for i := 1; i <= 3; i++ {
		recv(t, clk.armed, "the prober's timer")
		if n := clk.Advance(time.Second); n != 1 {
			t.Fatalf("tick %d fired %d timers, want the prober's", i, n)
		}
	}
	recv(t, clk.armed, "the prober's timer after its third sweep")
	if n := probes.Load(); n != 3 {
		t.Fatalf("%d probe sweeps after three ticks, want 3", n)
	}
	cancel()
	recv(t, clk.stopped, "the prober to stop its timer")
	if n := clk.Advance(time.Hour); n != 0 || probes.Load() != 3 {
		t.Fatalf("after cancel: %d timers fired, %d sweeps; want 0 and 3", n, probes.Load())
	}
}
