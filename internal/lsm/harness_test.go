package lsm

// Shared harness for the differential tests: a pure-Go model of the
// dictionary contract (string<->id bindings, liveness, id allocation order)
// and the rebuild-from-scratch frozen oracle that search results must match
// byte for byte.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"simsearch/internal/core"
)

// model mirrors the dictionary contract independently of the store: first
// insert binds the next free id, delete tombstones, re-insert revives.
type model struct {
	idOf  map[string]int32
	strOf map[int32]string
	live  map[int32]bool
	next  int32
}

func newModel(seed []string) *model {
	m := &model{
		idOf:  make(map[string]int32),
		strOf: make(map[int32]string),
		live:  make(map[int32]bool),
	}
	for _, s := range seed {
		m.insert(s)
	}
	return m
}

func (m *model) insert(s string) {
	id, ok := m.idOf[s]
	if !ok {
		id = m.next
		m.next++
		m.idOf[s] = id
		m.strOf[id] = s
	}
	m.live[id] = true
}

func (m *model) delete(s string) {
	if id, ok := m.idOf[s]; ok {
		m.live[id] = false
	}
}

// liveSet returns the live dictionary ascending by id.
func (m *model) liveSet() ([]int32, []string) {
	var ids []int32
	for id := int32(0); id < m.next; id++ {
		if m.live[id] {
			ids = append(ids, id)
		}
	}
	strs := make([]string, len(ids))
	for i, id := range ids {
		strs[i] = m.strOf[id]
	}
	return ids, strs
}

// expect answers q with the paper's reference scan rebuilt from scratch over
// the model's live strings, remapped to dictionary ids. Remapping preserves
// ID order because ids ascend with dense oracle indices.
func (m *model) expect(q core.Query) []core.Match {
	ids, strs := m.liveSet()
	ms := core.Reference(strs).Search(q)
	out := make([]core.Match, 0, len(ms))
	for _, r := range ms {
		out = append(out, core.Match{ID: ids[r.ID], Dist: r.Dist})
	}
	return out
}

// checkDict fails the test when the store's live dictionary diverges from
// the model's.
func checkDict(t *testing.T, st *Store, m *model) {
	t.Helper()
	wantIDs, wantStrs := m.liveSet()
	gotIDs, gotStrs := liveStrings(st)
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("live dictionary size: got %d, want %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] || gotStrs[i] != wantStrs[i] {
			t.Fatalf("live dictionary entry %d: got (%d, %q), want (%d, %q)",
				i, gotIDs[i], gotStrs[i], wantIDs[i], wantStrs[i])
		}
	}
}

// liveStrings returns the store's live dictionary as (ids, strings), both
// ascending by id, as the store itself resolves liveness.
func liveStrings(st *Store) ([]int32, []string) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var ids []int32
	for id := range st.dict {
		if st.isLiveLocked(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	strs := make([]string, len(ids))
	for i, id := range ids {
		strs[i] = st.dict[id]
	}
	return ids, strs
}

// checkSearch fails the test when the store's answer for q is not
// byte-identical to the frozen oracle's.
func checkSearch(t *testing.T, st *Store, m *model, q core.Query) {
	t.Helper()
	got := st.Search(q)
	want := m.expect(q)
	if !slices.Equal(got, want) {
		t.Fatalf("query %+v: got %v, want %v", q, got, want)
	}
}

// checkAll sweeps a query set derived from the universe strings.
func checkAll(t *testing.T, st *Store, m *model, universe []string, k int) {
	t.Helper()
	for _, s := range universe {
		checkSearch(t, st, m, core.Query{Text: s, K: k})
	}
	checkSearch(t, st, m, core.Query{Text: "", K: k})
	checkSearch(t, st, m, core.Query{Text: "zzzzqqqq", K: k})
}

// mutate returns s with one position changed, so queries hit near-misses.
func mutate(s string, pos int) string {
	if s == "" {
		return "x"
	}
	b := []byte(s)
	i := pos % len(b)
	b[i] = b[i] + 1
	return string(b)
}

// cityUniverse and dnaUniverse are small deterministic datasets on the two
// benchmark alphabets (mixed-case prose-like strings and ACGT reads).
func cityUniverse(n int) []string {
	rng := rand.New(rand.NewSource(7))
	names := []string{"berlin", "bern", "bonn", "bremen", "munich", "ulm", "augsburg", "aachen", "kassel", "koblenz"}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		base := names[rng.Intn(len(names))]
		switch rng.Intn(3) {
		case 0:
			out = append(out, base)
		case 1:
			out = append(out, base+fmt.Sprintf("-%d", rng.Intn(1000)))
		default:
			out = append(out, mutate(base, rng.Intn(len(base))))
		}
	}
	return out
}

func dnaUniverse(n, length int) []string {
	rng := rand.New(rand.NewSource(11))
	out := make([]string, 0, n)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.Reset()
		for j := 0; j < length; j++ {
			sb.WriteByte("ACGT"[rng.Intn(4)])
		}
		out = append(out, sb.String())
	}
	return out
}

// dedupe keeps first occurrences, preserving order — seed slices must be
// duplicate-free for the id contract to be caller-visible.
func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// take returns exactly n distinct universe strings, failing loudly instead
// of silently slicing past the deduplicated length.
func take(t *testing.T, universe []string, n int) []string {
	t.Helper()
	if len(universe) < n {
		t.Fatalf("universe has %d distinct strings, need %d", len(universe), n)
	}
	return universe[:n:n]
}

// seedEntries binds strs to ids 0..n-1, the frozen-engine-compatible layout.
func seedEntries(strs []string) []SeedEntry {
	out := make([]SeedEntry, len(strs))
	for i, s := range strs {
		out[i] = SeedEntry{ID: int32(i), S: s}
	}
	return out
}
