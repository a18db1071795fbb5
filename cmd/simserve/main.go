// Command simserve runs the similarity-search HTTP service over a dataset
// file (or a synthetic dataset when -gen is given).
//
// Usage:
//
//	simserve -data cities.txt -engine trie -addr :8080
//	simserve -gen city -n 40000 -shards 8 -timeout 2s -addr :8080
//
//	curl 'localhost:8080/search?q=Berlni&k=2'
//	curl 'localhost:8080/topk?q=Hambrug&n=3&maxk=3'
//	curl -d '{"queries":[{"q":"Berlni","k":2},{"q":"Mnchen","k":2}]}' localhost:8080/search/batch
//	curl 'localhost:8080/stats'
//	curl -s 'localhost:8080/stats' | jq '.shards[].cascade.survivors'
//
// /stats carries the dataset summary and one section per layer of the
// serving stack, each reported by the layer itself: "cascade" (the survivor
// funnel), "scan", "cache", "live" and "shards".
//
// With -shards > 0 the dataset is partitioned across a sharded executor
// (per-shard engines selected by -engine) and batches are answered
// shard-parallel; /stats then reports per-shard counters, each shard with
// its engine's own section (the cascade's funnel is per shard, not summed),
// and /metrics labels each shard engine's series with shard="i". The server
// honors per-request deadlines (-timeout), per-query deadlines in batches
// (-querytimeout, on the sharded and the serial path alike, with or without
// -cache), and shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to -grace.
//
// -cache puts a query-result cache with request coalescing in front of the
// engine (capacity -cachesize entries): repeated queries skip the engine
// entirely and concurrent identical queries trigger exactly one search.
// /stats and /metrics report hit/miss/eviction/coalesced counters.
//
// -live serves the mutable dictionary engine instead of a frozen one: the
// dataset becomes the seed, POST /insert and /delete accept writes, and the
// result cache (with -cache) is invalidated generation-by-generation as
// mutations land. -livedir DIR adds persistence: segment files plus a
// write-ahead log under DIR make acknowledged writes durable, and restarting
// with the same DIR recovers them. -shards and -workers keep their meaning
// (store count, and the pool a batch's store×query grid runs on);
// -engine is ignored while live.
//
// Observability: GET /metrics serves Prometheus text format (request and
// error counters, latency histograms, per-shard counters). -slowquery DUR
// logs every query slower than DUR to stderr; -pprof mounts the standard
// profiling handlers under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"simsearch"
	"simsearch/internal/httpapi"
	"simsearch/internal/metrics"
)

func main() {
	var (
		dataPath = flag.String("data", "", "dataset file, one string per line")
		gen      = flag.String("gen", "", "generate a synthetic dataset instead: city or dna")
		n        = flag.Int("n", 40000, "synthetic dataset size")
		engine   = flag.String("engine", "cascade", "engine: cascade, scan, trie")
		workers  = flag.Int("workers", 0, "scan engine workers (unsharded) or executor pool workers (sharded)")
		shards   = flag.Int("shards", 0, "partition the dataset across this many shards (0 = single engine)")
		addr     = flag.String("addr", ":8080", "listen address")
		maxK     = flag.Int("maxk", httpapi.DefaultLimits().MaxK, "largest accepted edit threshold")
		maxBatch = flag.Int("maxbatch", httpapi.DefaultLimits().MaxBatch, "largest accepted /search/batch size")
		timeout  = flag.Duration("timeout", 0, "per-request engine deadline (0 = none)")
		qTimeout = flag.Duration("querytimeout", 0, "per-query deadline inside batches (0 = none)")
		cacheOn  = flag.Bool("cache", false, "serve repeated queries from a result cache with request coalescing")
		cacheSz  = flag.Int("cachesize", 4096, "result-cache capacity in entries (with -cache)")
		live     = flag.Bool("live", false, "serve the mutable dictionary engine (POST /insert, /delete)")
		liveDir  = flag.String("livedir", "", "persist the live engine under this directory (implies -live)")
		grace    = flag.Duration("grace", 5*time.Second, "shutdown drain budget for in-flight requests")
		slowQ    = flag.Duration("slowquery", 0, "log queries slower than this to stderr (0 = off)")
		pprof    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	var data []string
	var err error
	switch {
	case *dataPath != "":
		data, err = simsearch.LoadStrings(*dataPath)
		if err != nil {
			log.Fatal(err)
		}
	case *gen == "city":
		data = simsearch.GenerateCities(*n, 1)
	case *gen == "dna":
		data = simsearch.GenerateDNAReads(*n, 1)
	default:
		fmt.Fprintln(os.Stderr, "simserve: need -data FILE or -gen city|dna")
		os.Exit(2)
	}

	opts := simsearch.Options{Workers: *workers}
	switch *engine {
	case "scan":
		opts.Algorithm = simsearch.Scan
	case "cascade":
		opts.Algorithm = simsearch.Cascade
	case "trie":
		opts.Algorithm = simsearch.Trie
	default:
		log.Fatalf("unknown engine %q", *engine)
	}

	start := time.Now()
	var eng simsearch.Searcher
	var ex *simsearch.Sharded
	switch {
	case *live || *liveDir != "":
		if *cacheOn {
			// The live facade wires its own cache over the stores, keyed on
			// their generation.
			opts.CacheSize = *cacheSz
			log.Printf("result cache enabled: %d entries", *cacheSz)
		}
		lv, err := simsearch.OpenLive(*liveDir, data, *shards, opts)
		if err != nil {
			log.Fatal(err)
		}
		defer lv.Close()
		st := lv.Stats()
		log.Printf("live engine: %d shards, %d live strings, %d segments, persistent=%v",
			st.Shards, st.Live, st.Segments, st.Persistent)
		eng = lv
	case *shards > 0:
		ex = simsearch.NewSharded(data, *shards, opts)
		log.Printf("sharded executor: %d shards, sizes %v", ex.NumShards(), ex.ShardSizes())
		eng = ex
		if *cacheOn {
			eng = simsearch.NewCached(eng, *cacheSz)
			log.Printf("result cache enabled: %d entries", *cacheSz)
		}
	default:
		eng = simsearch.New(data, opts)
		if *cacheOn {
			eng = simsearch.NewCached(eng, *cacheSz)
			log.Printf("result cache enabled: %d entries", *cacheSz)
		}
	}
	log.Printf("engine %s over %d strings built in %v", eng.Name(), len(data), time.Since(start))

	srv := httpapi.New(eng, data)
	srv.Limits = httpapi.Limits{MaxK: *maxK, MaxBatch: *maxBatch}
	srv.Timeout = *timeout
	srv.QueryTimeout = *qTimeout
	if *slowQ > 0 {
		slow := metrics.NewSlowLog(os.Stderr, *slowQ)
		slow.Register(srv.Registry())
		srv.Slow = slow
		if ex != nil {
			ex.SetSlowLog(slow)
		}
		log.Printf("slow-query log enabled at threshold %v", *slowQ)
	}
	if *pprof {
		srv.EnablePprof()
		log.Print("pprof enabled under /debug/pprof/")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("listening on %s (request timeout %v, shutdown grace %v)", *addr, *timeout, *grace)
	if err := httpapi.ListenAndServe(ctx, *addr, srv, *grace); err != nil {
		log.Fatal(err)
	}
	log.Print("drained in-flight requests; bye")
}
