package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"simsearch"
)

// Sizes of city-live. The seed is the first half of the city corpus; the
// write pool is drawn from the second half, distinct from the seed.
const (
	liveCorpus    = 100000
	liveWritePool = liveCorpus / 8
	liveReads     = 750 // queries per pass, k alternating 1, 2
	liveYard      = 600
	liveWriteRate = 2000 // paced writer of Phase R, ops/s
	liveShards    = 2
)

// dedupe drops repeated strings, first occurrence wins, skipping any in skip.
func dedupe(in []string, skip map[string]bool) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] && !skip[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// writer applies the write cycle of city-live — insert the whole pool, then
// delete the whole pool, repeat — and keeps the model of what is live.
type writer struct {
	b    *bench
	lv   *simsearch.Live
	pool []string
	pos  int             // next op: insert pool[pos] when pos < len(pool), else delete pool[pos-len(pool)]
	live map[string]bool // pool strings currently inserted
}

// step applies the next op of the cycle and checks its acknowledgement.
func (w *writer) step() {
	w.b.attempted.Add(1)
	n := len(w.pool)
	if w.pos < n {
		s := w.pool[w.pos]
		if _, changed, err := w.lv.Insert(s); err != nil || !changed {
			w.b.fail("insert %q: changed=%v err=%v", s, changed, err)
		}
		w.live[s] = true
	} else {
		s := w.pool[w.pos-n]
		if changed, err := w.lv.Delete(s); err != nil || !changed {
			w.b.fail("delete %q: changed=%v err=%v", s, changed, err)
		}
		delete(w.live, s)
	}
	w.pos = (w.pos + 1) % (2 * n)
}

// pace runs step at rate ops/s until stop is closed.
func (w *writer) pace(rate float64, stop <-chan struct{}) {
	start, done := time.Now(), 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		for due := int(time.Since(start).Seconds() * rate); done < due; done++ {
			w.step()
		}
		time.Sleep(time.Millisecond)
	}
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// matchedStrings resolves a result to its sorted strings, so engines with
// different id spaces can be compared.
func matchedStrings(ms []simsearch.Match, at func(int32) (string, bool)) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		s, _ := at(m.ID)
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func runLive(b *bench) error {
	start := time.Now()
	data := simsearch.GenerateCities(b.scale(liveCorpus), b.cfg.seed)
	b.add("dataset.gen_s", time.Since(start).Seconds())
	seed := dedupe(data[:len(data)/2], nil)
	inSeed := map[string]bool{}
	for _, s := range seed {
		inSeed[s] = true
	}
	pool := dedupe(data[len(data)/2:], inSeed)
	pool = pool[:min(len(pool), b.scale(liveWritePool))]
	reads := make([]simsearch.Query, liveReads)
	for i, t := range simsearch.GenerateQueries(seed, liveReads, 2, b.cfg.seed+1) {
		reads[i] = simsearch.Query{Text: t, K: 1 + i%2}
	}
	b.sizes["seed_strings"], b.sizes["seed_bytes"] = len(seed), corpusBytes(seed)
	b.sizes["write_pool"], b.sizes["reads_per_pass"] = len(pool), len(reads)

	// Tier 1: a memory-only live engine over a slice, with writes applied
	// and withdrawn, against the DP oracle.
	slice := preflightSlice(seed)
	preLive := simsearch.NewLive(slice, liveShards, simsearch.Options{})
	preWriter := &writer{b: b, lv: preLive, pool: pool[:min(len(pool), 100)], live: map[string]bool{}}
	for i := 0; i < 2*len(preWriter.pool); i++ {
		preWriter.step()
	}
	b.verify("live (slice)", preLive, slice, roundRobin(slice, []int{1, 2}, 32, b.cfg.seed+100))
	if err := preLive.Close(); err != nil {
		return fmt.Errorf("close slice engine: %w", err)
	}

	dir, err := os.MkdirTemp(b.cfg.out, "live-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var lv *simsearch.Live
	var scan, index simsearch.Searcher
	var store string // the directory of the engine currently open
	closeLive := func() {
		if lv != nil {
			if err := lv.Close(); err != nil {
				b.fail("close: %v", err)
			}
			lv = nil
		}
	}
	build := func() (func(), error) {
		var err error
		if store, err = os.MkdirTemp(dir, "store-"); err != nil {
			return nil, err
		}
		if lv, err = simsearch.OpenLive(store, seed, liveShards, simsearch.Options{}); err != nil {
			return nil, err
		}
		scan = simsearch.NewBitParallel(seed, 0)
		index = simsearch.NewIndex(seed)
		return func() {
			closeLive() // an error path can leave before the durability check closed it
			scan, index = nil, nil
		}, nil
	}

	var ref [][]simsearch.Match
	err = b.rounds(seed, build, func(budget time.Duration) error {
		if ref == nil {
			// Tier 2: the scan over the seed against the oracle, then its
			// answers are the reference: seed strings keep their slice index
			// as id and are never deleted, so every live answer must contain
			// exactly these below len(seed), whatever the writer is doing.
			b.verify("scan (full scale)", scan, seed, reads[:4])
			ref, _, _ = searchAll(scan, reads)
		}
		w := &writer{b: b, lv: lv, pool: pool, live: map[string]bool{}}
		// readPass answers reads on eng (the live engine, span-wrapped or
		// not) and checks each answer: the seed part equals the reference,
		// and anything else is a pool string the engine resolves and that
		// really is within k.
		readPass := func(eng simsearch.Searcher) ([]float64, time.Duration) {
			got, lat, wall := searchAll(eng, reads)
			for i, ms := range got {
				cut := sort.Search(len(ms), func(j int) bool { return int(ms[j].ID) >= len(seed) })
				b.check("live read", ms[:cut], ref[i])
				for _, m := range ms[cut:] {
					b.attempted.Add(1)
					if s, ok := lv.StringAt(m.ID); !ok || inSeed[s] || !simsearch.WithinK(reads[i].Text, s, reads[i].K) {
						b.fail("live read %q k=%d: id %d (%q) does not belong", reads[i].Text, reads[i].K, m.ID, s)
					}
				}
			}
			return lat, wall
		}
		readPass(lv) // warm

		// Phase W: one writer, closed loop, whole cycles.
		b.timedPasses(budget/4, func() {
			t := time.Now()
			for range pool {
				w.step()
			}
			mid := time.Now()
			if got := lv.Len(); got != len(seed)+len(pool) {
				b.fail("after inserting the pool Len is %d, want %d", got, len(seed)+len(pool))
			}
			t2 := time.Now()
			for range pool {
				w.step()
			}
			end := time.Now()
			if got := lv.Len(); got != len(seed) {
				b.fail("after deleting the pool Len is %d, want %d", got, len(seed))
			}
			b.attempted.Add(2)
			ins, del := mid.Sub(t), end.Sub(t2)
			b.add("lsm.insert_us", float64(ins.Microseconds())/float64(len(pool)))
			b.add("lsm.delete_us", float64(del.Microseconds())/float64(len(pool)))
			b.add("lsm.write_ops_per_s", float64(2*len(pool))/(ins+del).Seconds())
		})

		// Phase R: one reader while one writer applies the same cycle, paced.
		// A traced pass reads through the span decorator, after an untraced
		// pass under the same writer for the tracing overhead.
		before := lv.Stats()
		traced := wrap(b.rec, "live", lv)
		b.timedPasses(budget*3/4, func() {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.pace(liveWriteRate, stop)
			}()
			var plainWall time.Duration
			if b.traced {
				_, plainWall = readPass(lv)
			}
			rt := startRuntime()
			lat, wall := readPass(traced)
			rt.stop(b, len(reads))
			close(stop)
			wg.Wait()
			b.latencyStats(lat, wall)
			if b.traced {
				b.add("trace.overhead_ratio", plainWall.Seconds()/wall.Seconds())
			}
			asc := sorted(lat)
			b.add("lsm.stall_ratio", percentile(asc, 0.99)/percentile(asc, 0.50))
			b.add("lsm.segments_mean", float64(lv.Stats().Segments)/liveShards)
			b.yardsticks(scan, index, reads[:liveYard], ref[:liveYard])
		})
		after := lv.Stats()
		b.add("lsm.flushes", float64(after.Flushes-before.Flushes))
		b.add("lsm.compactions", float64(after.Compactions-before.Compactions))

		// Quiesced: the engine against a frozen scan over the model's live
		// set, by matched strings (the two id spaces differ).
		model := append([]string(nil), seed...)
		for _, s := range pool {
			if w.live[s] {
				model = append(model, s)
			}
		}
		frozen := simsearch.NewBitParallel(model, 0)
		at := func(id int32) (string, bool) { return model[id], true }
		answers := make([][]simsearch.Match, 64)
		for i, q := range reads[:64] {
			answers[i] = lv.Search(q)
			b.attempted.Add(1)
			got, want := matchedStrings(answers[i], lv.StringAt), matchedStrings(frozen.Search(q), at)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				b.fail("quiesced %q k=%d: got %v, frozen scan has %v", q.Text, q.K, got, want)
			}
		}

		// Durability: close, reopen from the directory alone, same answers.
		n := lv.Len()
		closeLive()
		onDisk, err := dirBytes(store)
		if err != nil {
			return err
		}
		b.add("lsm.disk_amp", float64(onDisk)/float64(corpusBytes(model)))
		t := time.Now()
		re, err := simsearch.OpenLive(store, nil, liveShards, simsearch.Options{})
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		b.add("lsm.reopen_s", time.Since(t).Seconds())
		b.attempted.Add(1)
		if re.Len() != n {
			b.fail("reopened Len is %d, want %d", re.Len(), n)
		}
		for i, q := range reads[:64] {
			b.check("reopened", re.Search(q), answers[i])
		}
		if err := re.Close(); err != nil {
			return fmt.Errorf("close reopened engine: %w", err)
		}
		return os.RemoveAll(store)
	})
	if err != nil || !b.traced {
		return err
	}
	segmentCells(b, seed, pool, reads[:liveYard])
	fanoutCell(b, seed, reads[:liveYard])
	return nil
}

// segmentCells measures read amplification against segment count on a
// memory-only engine: one segment per store after Compact, four after three
// more explicit flushes, and a frozen 2-shard scan over the same strings.
func segmentCells(b *bench, seed, pool []string, qs []simsearch.Query) {
	lv := simsearch.NewLive(seed, liveShards, simsearch.Options{})
	defer lv.Close()
	mean := func(eng simsearch.Searcher) float64 {
		return b.cell(len(qs), func(int) {
			for _, q := range qs {
				sink += len(eng.Search(q))
			}
		}) / 1e3
	}
	b.attempted.Add(2)
	if err := lv.Compact(); err != nil {
		b.fail("compact: %v", err)
	}
	b.add("lsm.search_us_seg1", mean(lv))
	// Each chunk stays under a store's flush limit, so only the explicit
	// Flush makes a segment, and four per store does not trigger compaction.
	chunk := min(len(pool)/3, 800)
	for i := 0; i < 3; i++ {
		for _, s := range pool[i*chunk : (i+1)*chunk] {
			if _, _, err := lv.Insert(s); err != nil {
				b.fail("insert: %v", err)
			}
		}
		if err := lv.Flush(); err != nil {
			b.fail("flush: %v", err)
		}
	}
	if got := lv.Stats().Segments; got != 4*liveShards {
		b.fail("expected %d segments after three flushes, have %d", 4*liveShards, got)
	}
	seg4 := mean(lv)
	b.add("lsm.search_us_seg4", seg4)
	all := append(append([]string(nil), seed...), pool[:3*chunk]...)
	frozen := simsearch.NewSharded(all, liveShards, simsearch.Options{Algorithm: simsearch.BitParallel})
	b.add("lsm.read_amp_seg4", seg4/mean(frozen))
}
