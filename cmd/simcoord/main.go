// Command simcoord runs the scatter-gather coordinator in front of a fleet
// of simserve shard servers, turning N single-machine engines into one
// distributed similarity-search service with the same HTTP surface.
//
// Usage:
//
//	# three shard servers over contiguous partitions of one dataset…
//	simserve -data part0.txt -engine bitparallel -addr :9001 &
//	simserve -data part1.txt -engine bitparallel -addr :9002 &
//	simserve -data part2.txt -engine bitparallel -addr :9003 &
//
//	# …and the coordinator scatter-gathering across them
//	simcoord -shard http://localhost:9001 \
//	         -shard http://localhost:9002 \
//	         -shard http://localhost:9003 -addr :8080
//
//	curl 'localhost:8080/search?q=Berlni&k=2'
//	curl -d '{"queries":[{"q":"Berlni","k":2}]}' localhost:8080/search/batch
//	curl 'localhost:8080/stats'
//
// -shard is given once per shard, in dataset order (shard i holds the IDs
// that follow shard i-1); replicas of one shard are separated by commas:
//
//	simcoord -shard http://a:9001,http://b:9001 -shard http://a:9002,http://b:9002
//
// At startup the coordinator asks each shard's /stats for its string count to
// compute the global ID bases, so results carry the same IDs a single-process
// run over the concatenated dataset would return.
//
// -hedge QUANTILE enables hedged requests: a shard RPC still in flight past
// that quantile of the shard's own latency distribution launches a second
// attempt on another replica, first answer wins. -inflight caps admitted
// requests (excess sheds with 503 + Retry-After); -probe runs background
// /healthz sweeps marking dead replicas down before a request finds out the
// hard way.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"simsearch/internal/distrib"
	"simsearch/internal/httpapi"
)

// shardFlags collects repeated -shard values.
type shardFlags []string

func (s *shardFlags) String() string     { return strings.Join(*s, " ") }
func (s *shardFlags) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var shards shardFlags
	flag.Var(&shards, "shard", "shard server base URL(s), repeat per shard in dataset order; comma-separates replicas of one shard")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		timeout  = flag.Duration("timeout", 5*time.Second, "scatter-gather deadline per request (0 = none)")
		hedge    = flag.Float64("hedge", 0, "hedge quantile in (0,1), e.g. 0.95; 0 disables hedged requests")
		hedgeMin = flag.Duration("hedgemin", time.Millisecond, "floor under the hedge delay")
		inflight = flag.Int("inflight", 1024, "admission cap on concurrent query requests (<0 = unlimited)")
		probe    = flag.Duration("probe", time.Second, "health-probe interval for replica /healthz sweeps (0 = off)")
		cooldown = flag.Duration("cooldown", time.Second, "circuit-breaker open duration after repeated replica failures")
		maxK     = flag.Int("maxk", httpapi.DefaultLimits().MaxK, "largest accepted edit threshold (give the shards the same)")
		maxBatch = flag.Int("maxbatch", httpapi.DefaultLimits().MaxBatch, "largest accepted /search/batch size (give the shards the same)")
		grace    = flag.Duration("grace", 5*time.Second, "shutdown drain budget for in-flight requests")
	)
	flag.Parse()

	if len(shards) == 0 {
		log.Fatal("simcoord: need at least one -shard URL (repeat per shard, comma-separate replicas)")
	}
	specs := make([]distrib.ShardSpec, len(shards))
	for i, s := range shards {
		for _, rep := range strings.Split(s, ",") {
			if rep = strings.TrimSpace(rep); rep != "" {
				specs[i].Replicas = append(specs[i].Replicas, rep)
			}
		}
	}

	coord, err := distrib.New(specs, distrib.Options{
		HedgeQuantile:   *hedge,
		HedgeMin:        *hedgeMin,
		MaxInFlight:     *inflight,
		Timeout:         *timeout,
		BreakerCooldown: *cooldown,
		Limits:          httpapi.Limits{MaxK: *maxK, MaxBatch: *maxBatch},
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := coord.Discover(dctx); err != nil {
		cancel()
		log.Fatalf("simcoord: discovering shard counts: %v", err)
	}
	cancel()
	log.Printf("coordinator over %d shards, %d strings total", coord.NumShards(), coord.Strings())
	if *probe > 0 {
		coord.StartProber(ctx, *probe)
		log.Printf("health prober sweeping replicas every %v", *probe)
	}
	if *hedge > 0 {
		log.Printf("hedged requests at the p%.0f shard-latency quantile (floor %v)", *hedge*100, *hedgeMin)
	}

	hs := &http.Server{Addr: *addr, Handler: coord, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s (request timeout %v, admission cap %d)", *addr, *timeout, *inflight)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	sctx, scancel := context.WithTimeout(context.Background(), *grace)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	<-errc
	log.Print("drained in-flight requests; bye")
}
