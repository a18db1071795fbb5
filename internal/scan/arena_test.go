package scan

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// matchesEqual treats nil and empty as the same result set (a sweep with no
// match may return an empty slice, the oracle returns nil).
func matchesEqual(a, b []Match) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestArenaLayout(t *testing.T) {
	data := []string{"bbb", "a", "cc", "", "dd", "eee", "f"}
	a := NewWords(data).Arena()
	if a.Len() != len(data) || a.Bytes() != 12 || a.maxLen != 3 {
		t.Fatalf("arena shape: %d slots, %d bytes, max length %d", a.Len(), a.Bytes(), a.maxLen)
	}
	// Slots must be length-ordered, hold every ID once and the right bytes,
	// with no per-slot offset stored: a slot's bytes come from its bucket's
	// stride.
	seen := map[int32]bool{}
	for s := int32(0); s < int32(a.Len()); s++ {
		str := string(slotBytes(a, s))
		if str != data[a.ids[s]] {
			t.Errorf("slot %d holds %q, want %q", s, str, data[a.ids[s]])
		}
		if seen[a.ids[s]] {
			t.Errorf("slot %d repeats ID %d", s, a.ids[s])
		}
		seen[a.ids[s]] = true
		if s > 0 && len(slotBytes(a, s-1)) > len(str) {
			t.Errorf("slot %d breaks length order", s)
		}
	}
	// slotRange must select exactly the strings in the length window.
	for lo := -1; lo <= 4; lo++ {
		for hi := lo; hi <= 5; hi++ {
			s, e := a.slotRange(lo, hi)
			count := 0
			for _, str := range data {
				if len(str) >= lo && len(str) <= hi {
					count++
				}
			}
			if int(e-s) != count {
				t.Errorf("slotRange(%d,%d) selects %d slots, want %d", lo, hi, e-s, count)
			}
		}
	}
	// Lengths present: 0 (""), 1 (a, f), 2 (cc, dd), 3 (bbb, eee).
	if a.Buckets() != 4 {
		t.Errorf("buckets = %d, want 4", a.Buckets())
	}
}

// slotBytes returns slot s's bytes, walking the length buckets from the
// first.
func slotBytes(a *Arena, s int32) []byte {
	xb, _ := a.slotBytesFrom(s, 0)
	return xb
}

// TestArenaSlotBytesGaps covers the walk over buckets when lengths are
// missing in between, and sweeps over windows that start and end on,
// beside and between block and group boundaries: the large arena's windows
// span several groups.
func TestArenaSlotBytesGaps(t *testing.T) {
	gaps := []string{"aaaaaaa", "", "bb", "ccccccc", "", "dd", "eeeeeeeeeeee", "ff"}
	w := NewWords(gaps)
	for s := int32(0); s < int32(w.ar.Len()); s++ {
		if got, want := string(slotBytes(w.ar, s)), gaps[w.ar.ids[s]]; got != want {
			t.Errorf("slot %d holds %q, want %q", s, got, want)
		}
	}
	for _, q := range []Query{{"bb", 12}, {"bb", 0}, {"cccccc", 1}, {"", 2}, {"eeeeeeeeeeeee", 5}} {
		checkSweep(t, w, q)
	}
	r := rand.New(rand.NewSource(34))
	many := make([]string, 2*ctxStride+300)
	for i := range many {
		many[i] = randomString(r, "abcd", 8)
	}
	w = NewWords(many)
	for _, q := range []Query{{"abcd", 0}, {"abcd", 2}, {"abcdabc", 9}, {"abcdabcd", 33}} {
		checkSweep(t, w, q)
	}
}

// checkSweep holds one Sweep of q's window against the oracle, and its
// counters against the window: every slot of it visited, and each stage
// keeping at most what the one before it let through.
func checkSweep(t *testing.T, w *Words, q Query) {
	t.Helper()
	pr := NewProbe(q.Text, q.K)
	got, err := w.Sweep(context.Background(), &pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(MergeRuns(got), refSearch(wordsData(w), q)) {
		t.Fatalf("%+v: the sweep disagrees with the oracle", q)
	}
	lo, hi := w.ar.slotRange(pr.lengths())
	if pr.Visited != uint64(hi-lo) || pr.Swept > pr.Visited || pr.Passed > pr.Swept || pr.Kept > pr.Passed {
		t.Fatalf("%+v: window of %d slots, counters %d, %d, %d, %d", q, hi-lo, pr.Visited, pr.Swept, pr.Passed, pr.Kept)
	}
}

// wordsData recovers the input a Words was packed from, in ID order.
func wordsData(w *Words) []string {
	data := make([]string, w.ar.Len())
	for s := int32(0); s < int32(len(data)); s++ {
		data[w.ar.ids[s]] = string(slotBytes(w.ar, s))
	}
	return data
}

func TestMergeRuns(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Build a random concatenation of strictly ascending unique-ID runs.
		nIDs := 1 + r.Intn(200)
		perm := r.Perm(nIDs)
		nRuns := 1 + r.Intn(8)
		var ms []Match
		for ri := 0; ri < nRuns; ri++ {
			lo, hi := ri*len(perm)/nRuns, (ri+1)*len(perm)/nRuns
			run := append([]int(nil), perm[lo:hi]...)
			sort.Ints(run)
			for _, id := range run {
				ms = append(ms, Match{ID: int32(id), Dist: id % 5})
			}
		}
		want := append([]Match(nil), ms...)
		sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
		return reflect.DeepEqual(MergeRuns(ms), want)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if got := MergeRuns(nil); got != nil {
		t.Errorf("MergeRuns(nil) = %v", got)
	}
}
