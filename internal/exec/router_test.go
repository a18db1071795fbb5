package exec

import (
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/router"
)

// TestRouterFactoryByteIdentical extends the sharded acceptance check to the
// adaptive router: with the explore arm forced on every query, a 4-shard
// router executor must match the single-engine scan on both seed datasets no
// matter which candidate engine each shard's arm lands on.
func TestRouterFactoryByteIdentical(t *testing.T) {
	workloads := []struct {
		name string
		data []string
		ks   []int
	}{
		{"city", dataset.Cities(1200, 1), []int{0, 1, 2, 3}},
		{"dna", dataset.DNAReads(300, 1), []int{0, 1, 2, 3}},
	}
	for _, w := range workloads {
		single := DefaultFactory(w.data)
		qs := queriesFor(w.data, 30, w.ks, 42)
		want := core.SearchBatch(single, qs, nil)
		ex := New(w.data, Options{
			Shards:  4,
			Factory: RouterFactory(router.WithExploreEvery(1)),
		})
		// Three batch passes: repeats cycle the forced explore arm through
		// every candidate and exercise the feedback loop on each shard.
		for pass := 0; pass < 3; pass++ {
			mustEqualBatches(t, w.name+"/router/batch", ex.SearchBatch(qs), want)
		}
		for i, q := range qs[:10] {
			if got := ex.Search(q); !core.Equal(got, want[i]) {
				t.Fatalf("%s/router: Search(%+v) = %v, want %v", w.name, q, got, want[i])
			}
		}
	}
}

// TestRouterFactoryPerShardEligibility: every shard's router holds the
// cascade arm, whatever the corpus — count words over a pure-DNA shard,
// occurrence bits otherwise, over an arena the shard's scan arm shares.
func TestRouterFactoryPerShardEligibility(t *testing.T) {
	check := func(data []string) {
		t.Helper()
		ex := New(data, Options{Shards: 3, Factory: RouterFactory()})
		shards := ex.ShardEngines()
		if len(shards) != 3 {
			t.Fatalf("ShardEngines = %d, want 3", len(shards))
		}
		for i, se := range shards {
			r, ok := se.(*router.Engine)
			if !ok {
				t.Fatalf("shard %d is %T, want *router.Engine", i, se)
			}
			has := false
			for _, name := range r.Eligible() {
				if name == "cascade" {
					has = true
				}
			}
			if !has {
				t.Errorf("shard %d has no cascade arm (eligible %v)", i, r.Eligible())
			}
		}
	}
	check(dataset.DNAReads(120, 5))
	check(dataset.Cities(120, 5))
}
