package simsearch_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"simsearch"
	"simsearch/internal/core"
	"simsearch/internal/lsm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/work.golden.json from this tree's counts")

// workGolden is where TestWorkGolden keeps its counts.
var workGolden = filepath.Join("testdata", "work.golden.json")

// workRecord is one query's work on the three cascade paths: per path the
// slots of its length windows, those in blocks the summaries let the sweep
// into, the first word's survivors, the kernel calls and the matches.
type workRecord struct {
	Corpus  string    `json:"corpus"`
	K       int       `json:"k"`
	Query   int       `json:"query"`
	Cascade [5]uint64 `json:"cascade"`
	Sharded [5]uint64 `json:"sharded"`
	LSM     [5]uint64 `json:"lsm"`
}

// funnel reads a cascade's five cumulative counts.
func funnel(st core.CascadeStats) [5]uint64 {
	return [5]uint64{st.Candidates, st.Swept, st.Passed, st.Survivors, st.Matches}
}

// minus returns what a query added to cumulative counts.
func minus(after, before [5]uint64) (d [5]uint64) {
	for i := range d {
		d[i] = after[i] - before[i]
	}
	return d
}

// TestWorkGolden pins the work a query does, not its time: the per-stage
// counts of every query over seeded corpora — 20,000 names at k = 0..3 and
// 12, 5,000 reads at k = 0, 4, 8, 12 and 16 — through a cascade, the sharded
// executor over four cascades, and a live store whose strings sit in two
// flushed segments (the compactor never runs: it waits for a fifth). The
// counts are exact for a seeded corpus and query set, so a change that moves
// any stage shows as a diff of testdata/work.golden.json; rewrite it with
// go test -run TestWorkGolden -update.
func TestWorkGolden(t *testing.T) {
	var got []workRecord
	for _, c := range []struct {
		name string
		data []string
		ks   []int
	}{
		{"names", simsearch.GenerateCities(20000, 7), []int{0, 1, 2, 3, 12}},
		{"reads", simsearch.GenerateDNAReads(5000, 7), []int{0, 4, 8, 12, 16}},
	} {
		casc := simsearch.NewCascade(c.data).(*core.Cascade)
		sh := simsearch.NewSharded(c.data, 4, simsearch.Options{Algorithm: simsearch.Cascade})
		shardFunnel := func() (sum [5]uint64) {
			for _, e := range sh.ShardEngines() {
				f := funnel(e.(*core.Cascade).Stats())
				for i := range sum {
					sum[i] += f[i]
				}
			}
			return sum
		}
		st := liveStore(t, c.data)
		for _, k := range c.ks {
			for i, q := range simsearch.GenerateQueries(c.data, 10, k, 8+int64(k)) {
				r := workRecord{Corpus: c.name, K: k, Query: i}
				query := simsearch.Query{Text: q, K: k}
				before := funnel(casc.Stats())
				casc.Search(query)
				r.Cascade = minus(funnel(casc.Stats()), before)
				before = shardFunnel()
				sh.Search(query)
				r.Sharded = minus(shardFunnel(), before)
				ls := st.Stats()
				ms := st.Search(query)
				after := st.Stats()
				r.LSM = [5]uint64{after.Candidates - ls.Candidates, after.Swept - ls.Swept,
					after.Passed - ls.Passed, after.Survivors - ls.Survivors, uint64(len(ms))}
				got = append(got, r)
			}
		}
	}

	var buf bytes.Buffer // one query a line, so a funnel change reads as a line diff
	buf.WriteString("[\n")
	for i, r := range got {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(got)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	if *updateGolden {
		if err := os.WriteFile(workGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(workGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var want []workRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", workGolden, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d queries counted, %s holds %d", len(got), workGolden, len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("%s k=%d query %d: counts %s, golden %s", got[i].Corpus, got[i].K, got[i].Query, counts(got[i]), counts(want[i]))
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d queries do work the golden does not pin; if the change is meant, rerun with -update and say why", bad, len(got))
	}
}

// counts prints a record's three funnels.
func counts(r workRecord) string {
	return fmt.Sprintf("cascade %v sharded %v lsm %v", r.Cascade, r.Sharded, r.LSM)
}

// liveStore opens a memory-only store over the distinct strings of data:
// the first nine tenths seeded into one segment, the rest inserted and
// flushed into a second.
func liveStore(t *testing.T, data []string) *lsm.Store {
	t.Helper()
	var seed []lsm.SeedEntry
	var rest []string
	seen := map[string]bool{}
	for _, s := range data {
		if seen[s] {
			continue
		}
		seen[s] = true
		if len(seed) < len(data)*9/10 {
			seed = append(seed, lsm.SeedEntry{ID: int32(len(seed)), S: s})
		} else {
			rest = append(rest, s)
		}
	}
	st, err := lsm.Open(lsm.Options{Seed: seed, FlushLimit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, s := range rest {
		if _, _, err := st.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Segments != 2 || s.DeltaEntries != 0 || s.Compactions != 0 {
		t.Fatalf("store shape: %+v", s)
	}
	return st
}
