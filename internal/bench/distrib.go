package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simsearch/internal/dataset"
	"simsearch/internal/distrib"
	"simsearch/internal/exec"
	"simsearch/internal/httpapi"
	"simsearch/internal/metrics"
)

// DistribConfig sizes the scatter-gather serving benchmark: a local fleet of
// shard servers behind a distrib.Coordinator, driven by a Zipf-skewed
// open-loop client (arrivals at a fixed rate, independent of completions, so
// a slow tail queues instead of throttling the load).
type DistribConfig struct {
	Shards    []int         // shard counts to sweep
	Strings   int           // city dataset size, partitioned across shards
	Rate      float64       // offered load in queries/second
	Duration  time.Duration // measured open-loop window per cell
	Warmup    int           // closed-loop queries per cell to seed latency histograms
	Skew      float64       // Zipf exponent of query popularity
	MaxEdits  int           // query mutation budget
	K         int           // edit threshold sent with every query
	SlowDelay time.Duration // injected service delay of the fault cell's slow replica
	Hedge     float64       // hedge quantile for the hedged cells
	HedgeMin  time.Duration // hedge-delay floor: above healthy latency, well under SlowDelay
	Seed      int64
}

// DefaultDistribConfig keeps a full sweep (4 shard counts x hedging on/off x
// fault on/off) around a minute on a small machine. The default rate is
// deliberately below a one-core box's saturation point: hedging adds RPC load,
// and an open-loop client past saturation measures queue growth, not the
// serving tier.
func DefaultDistribConfig() DistribConfig {
	return DistribConfig{
		Shards:    []int{1, 2, 4, 8},
		Strings:   20000,
		Rate:      150,
		Duration:  2 * time.Second,
		Warmup:    64,
		Skew:      1.3,
		MaxEdits:  2,
		K:         2,
		SlowDelay: 25 * time.Millisecond,
		Hedge:     0.9,
		HedgeMin:  5 * time.Millisecond,
		Seed:      20130322,
	}
}

// DistribCell is one measured cell of the sweep.
type DistribCell struct {
	Shards     int
	Hedged     bool
	SlowShard  bool
	Offered    float64 // arrival rate the client held, qps
	Throughput float64 // completed OK responses per second of wall time
	Sent       int
	Errors     int
	Lat        metrics.Summary // per-request latency from scheduled arrival (includes queueing)
}

// shardFleet is the benchmark's local serving stack: real HTTP servers on
// loopback listeners, two replicas per shard so hedges and failover have
// somewhere to go, and a coordinator in front.
type shardFleet struct {
	coord   *distrib.Coordinator
	servers []*http.Server
	lns     []net.Listener
}

// startShardFleet partitions data across p shards exactly like a
// single-process exec.Sharded would and serves each partition from two
// replica servers. slowDelay > 0 makes shard 0's first replica stall that
// long before answering each batch — the one-slow-shard fault.
func startShardFleet(data []string, p int, hedge float64, hedgeMin, slowDelay time.Duration) (*shardFleet, error) {
	f := &shardFleet{}
	specs := make([]distrib.ShardSpec, 0, p)
	for i, r := range distrib.Partition(len(data), p) {
		part := data[r[0]:r[1]]
		srv := httpapi.New(exec.DefaultFactory(part), part)
		var reps []string
		for rep := 0; rep < 2; rep++ {
			var h http.Handler = srv
			if slowDelay > 0 && i == 0 && rep == 0 {
				h = slowHandler{inner: srv, delay: slowDelay}
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				f.close()
				return nil, err
			}
			hs := &http.Server{Handler: h}
			go hs.Serve(ln)
			f.lns = append(f.lns, ln)
			f.servers = append(f.servers, hs)
			reps = append(reps, "http://"+ln.Addr().String())
		}
		specs = append(specs, distrib.ShardSpec{Replicas: reps})
	}
	coord, err := distrib.New(specs, distrib.Options{
		HedgeQuantile: hedge,
		HedgeMin:      hedgeMin,
		Timeout:       10 * time.Second,
		MaxInFlight:   -1, // the bench offers the load; never shed
	})
	if err != nil {
		f.close()
		return nil, err
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Discover(dctx); err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

func (f *shardFleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	for _, ln := range f.lns {
		ln.Close()
	}
}

// slowHandler stalls every batch RPC by delay — a degraded-but-correct shard.
type slowHandler struct {
	inner http.Handler
	delay time.Duration
}

func (s slowHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/search/batch" {
		time.Sleep(s.delay)
	}
	s.inner.ServeHTTP(w, r)
}

// DistribSweep measures every (shards, hedged, fault) cell. progress, when
// non-nil, gets a line per cell as it completes.
func DistribSweep(progress io.Writer, cfg DistribConfig) ([]DistribCell, error) {
	data := dataset.Cities(cfg.Strings, cfg.Seed)
	queries := dataset.QueriesZipf(data, 512, cfg.MaxEdits, cfg.Skew, cfg.Seed+1)
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(httpapi.BatchRequest{Queries: []httpapi.BatchQuery{httpapi.ExactQuery(q, cfg.K)}})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	var cells []DistribCell
	for _, p := range cfg.Shards {
		for _, fault := range []bool{false, true} {
			for _, hedged := range []bool{false, true} {
				hedge := 0.0
				if hedged {
					hedge = cfg.Hedge
				}
				slow := time.Duration(0)
				if fault {
					slow = cfg.SlowDelay
				}
				cell, err := runDistribCell(cfg, bodies, data, p, hedge, slow)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
				if progress != nil {
					fmt.Fprintf(progress, "  shards=%d hedged=%-5v slow=%-5v  %6.0f qps  p50=%-8v p99=%v\n",
						cell.Shards, cell.Hedged, cell.SlowShard, cell.Throughput,
						cell.Lat.P50.Round(10*time.Microsecond), cell.Lat.P99.Round(10*time.Microsecond))
				}
			}
		}
	}
	return cells, nil
}

func runDistribCell(cfg DistribConfig, bodies [][]byte, data []string, p int, hedge float64, slow time.Duration) (DistribCell, error) {
	fleet, err := startShardFleet(data, p, hedge, cfg.HedgeMin, slow)
	if err != nil {
		return DistribCell{}, err
	}
	defer fleet.close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return DistribCell{}, err
	}
	front := &http.Server{Handler: fleet.coord}
	go front.Serve(ln)
	defer front.Close()
	defer ln.Close()
	url := "http://" + ln.Addr().String() + "/search/batch"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}

	// Closed-loop warmup: seeds connections and the per-shard latency
	// histograms the hedge delay is quoted from.
	for i := 0; i < cfg.Warmup; i++ {
		if err := postOnce(client, url, bodies[i%len(bodies)]); err != nil {
			return DistribCell{}, fmt.Errorf("warmup: %w", err)
		}
	}

	n := int(cfg.Rate * cfg.Duration.Seconds())
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	lats := make([]time.Duration, n)
	var wg sync.WaitGroup
	var errs atomic.Int64
	start := time.Now()
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			if err := postOnce(client, url, bodies[i%len(bodies)]); err != nil {
				errs.Add(1)
			}
			// Latency from the scheduled arrival: open-loop latency charges
			// queueing delay to the server, as a user would experience it.
			lats[i] = time.Since(sched)
		}(i, sched)
	}
	wg.Wait()
	elapsed := time.Since(start)
	client.CloseIdleConnections()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ok := n - int(errs.Load())
	return DistribCell{
		Shards:     p,
		Hedged:     hedge > 0,
		SlowShard:  slow > 0,
		Offered:    cfg.Rate,
		Throughput: float64(ok) / elapsed.Seconds(),
		Sent:       n,
		Errors:     int(errs.Load()),
		Lat:        metrics.Summarize(lats),
	}, nil
}

func postOnce(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// DistribReport renders the sweep as an aligned table.
func DistribReport(w io.Writer, cfg DistribConfig, cells []DistribCell) {
	fmt.Fprintf(w, "Distributed scatter-gather serving: %d strings, offered %.0f qps for %v per cell, Zipf s=%.2f, slow-shard fault +%v\n",
		cfg.Strings, cfg.Rate, cfg.Duration, cfg.Skew, cfg.SlowDelay)
	fmt.Fprintf(w, "%8s %8s %6s %12s %8s %10s %10s %10s %7s\n",
		"shards", "hedged", "fault", "offered", "done", "qps", "p50", "p99", "errors")
	for _, c := range cells {
		fmt.Fprintf(w, "%8d %8v %6v %12.0f %8d %10.0f %10v %10v %7d\n",
			c.Shards, c.Hedged, c.SlowShard, c.Offered, c.Sent-c.Errors, c.Throughput,
			c.Lat.P50.Round(10*time.Microsecond), c.Lat.P99.Round(10*time.Microsecond), c.Errors)
	}
	fmt.Fprintln(w)
}

// DistribRecords converts the sweep to BENCH_*.json records.
func DistribRecords(cfg DistribConfig, cells []DistribCell) []Record {
	recs := make([]Record, 0, len(cells))
	for _, c := range cells {
		recs = append(recs, Record{
			Experiment:    "distrib",
			Engine:        "coordinator",
			Dataset:       "city",
			K:             cfg.K,
			Queries:       c.Sent,
			NsPerQuery:    c.Lat.Mean.Nanoseconds(),
			Shards:        c.Shards,
			Hedged:        c.Hedged,
			SlowShard:     c.SlowShard,
			OfferedQPS:    c.Offered,
			ThroughputQPS: c.Throughput,
			P50µS:         c.Lat.P50.Microseconds(),
			P99µS:         c.Lat.P99.Microseconds(),
		})
	}
	return recs
}
