package scan

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"simsearch/internal/edit"
)

// TestLooseSweep holds a Loose's sweep to edit.Distance at k = 0, 2 and 33
// (past edit.MaxBandK: the blocked kernel and its scratch) for a query with
// more than edit.LaneCount survivors of its words, over two lengths or more
// where k > 0 allows them: the queue fills, goes to the kernel and leaves a
// last, shorter batch that only the sweep's own flush hands on. It does so
// again after strings are removed, and after one of them is added back under
// its ID. Anagrams share a word, so at k = 0 only their bytes tell them
// apart.
func TestLooseSweep(t *testing.T) {
	const q = "abcdefgh"
	var data []string
	for i := range q {
		data = append(data, q[:i]+"x"+q[i+1:], q[:i]+q[i+1:]) // one substitution, one deletion
		data = append(data, q[:i]+"zz"+q[i:], q[i:]+q[:i])    // two insertions, a rotation (by 0: q)
	}
	data = append(data, "hgfedcba", "bacdefgh", "abcdefhg", "abcd", "abcdefghijklmn", "listen", "silent", "ACGTACGT")
	var l Loose
	live := map[int32]bool{}
	for i, s := range data {
		l.Add(int32(i), s)
		live[int32(i)] = true
	}
	check := func(stage string) {
		t.Helper()
		for _, k := range []int{0, 2, 33} {
			pr := NewProbe(q, k)
			lo, hi := pr.lengths()
			survivors, lengths := 0, map[int32]bool{}
			for _, e := range l.entries {
				if lo <= int(e.n) && int(e.n) <= hi && !pr.rejects(e.word, e.counts) {
					survivors++
					lengths[e.n] = true
				}
			}
			if survivors <= edit.LaneCount || len(lengths) < min(k+1, 2) {
				t.Fatalf("%s, k=%d: %d survivors over %d lengths, want more than %d over %d or more", stage, k, survivors, len(lengths), edit.LaneCount, min(k+1, 2))
			}
			var want []Match
			for i, s := range data {
				if d := edit.Distance(q, s); live[int32(i)] && d <= k {
					want = append(want, Match{ID: int32(i), Dist: d})
				}
			}
			got, err := l.Sweep(context.Background(), &pr, nil)
			if err != nil || !slices.Equal(MergeRuns(got), want) || pr.queued != 0 {
				t.Fatalf("%s, k=%d: got %v, %v with %d left queued; want %v", stage, k, got, err, pr.queued, want)
			}
			if pr.Visited+pr.Swept+pr.Passed+pr.Kept != 0 {
				t.Fatalf("%s, k=%d: the sweep counted arena slots: %+v", stage, k, pr)
			}
		}
	}
	check("added")
	for _, id := range []int32{0, 3, 7, int32(len(data) - 2)} {
		l.Remove(id, len(data[id]))
		live[id] = false
	}
	if len(l.entries) != len(data)-4 {
		t.Fatalf("%d entries after four removals from %d", len(l.entries), len(data))
	}
	check("removed")
	l.Add(3, data[3])
	live[3] = true
	check("added back")

	listen, silent := len(data)-3, len(data)-2
	l.Add(int32(silent), data[silent])
	var words []uint64
	for _, e := range l.entries {
		if e.id == int32(listen) || e.id == int32(silent) {
			words = append(words, e.word)
		}
	}
	pr := NewProbe("listen", 0)
	if got, _ := l.Sweep(context.Background(), &pr, nil); len(words) != 2 || words[0] != words[1] || !slices.Equal(got, []Match{{ID: int32(listen)}}) {
		t.Fatalf("anagrams: words %#x, and listen at k = 0 finds %v", words, got)
	}
}

// TestLooseSweepCancels: a sweep over more than ctxStride entries of its
// length window polls ctx and returns its error, not a partial result.
func TestLooseSweepCancels(t *testing.T) {
	var l Loose
	for i := 0; i < 2*ctxStride; i++ {
		l.Add(int32(i), fmt.Sprintf("s%06d", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr := NewProbe("s000000", 1)
	if got, err := l.Sweep(ctx, &pr, nil); got != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled sweep returned %v, %v", got, err)
	}
	var want []Match
	for i := 0; i < 2*ctxStride; i++ {
		if d := edit.Distance("s000000", fmt.Sprintf("s%06d", i)); d <= 1 {
			want = append(want, Match{ID: int32(i), Dist: d})
		}
	}
	pr = NewProbe("s000000", 1)
	if got, err := l.Sweep(context.Background(), &pr, nil); err != nil || !slices.Equal(MergeRuns(got), want) {
		t.Fatalf("the sweep returned %v, %v; want %v", got, err, want)
	}
}

// TestLoosePacks adds and removes one string over and over beside one that
// stays: after every Add the buffer holds at most twice the bytes the set
// names, and the sweep still finds both strings where the packing put them.
func TestLoosePacks(t *testing.T) {
	const stays, comes = "Berlin", "Berlin-Charlottenburg"
	var l Loose
	l.Add(0, stays)
	for i := 0; i < 1000; i++ {
		l.Add(1, comes)
		if len(l.buf) > 2*l.held {
			t.Fatalf("after %d adds the buffer holds %d bytes, the set %d", i+1, len(l.buf), l.held)
		}
		l.Remove(1, len(comes))
	}
	l.Add(1, comes)
	for id, q := range []string{stays, comes} {
		pr := NewProbe(q, 1)
		if got, err := l.Sweep(context.Background(), &pr, nil); err != nil || !slices.Equal(got, []Match{{ID: int32(id)}}) {
			t.Fatalf("%q at k = 1: %v, %v", q, got, err)
		}
	}
}
