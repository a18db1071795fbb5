package distrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"simsearch/internal/core"
	"simsearch/internal/httpapi"
	"simsearch/internal/scan"
)

// FuzzCoordMerge drives the coordinator's fan-in with arbitrary ID-sorted
// sets cut into contiguous shard runs at fuzzed cut points, as Partition
// lays shards out, and checks it against two oracles: the sorted set itself,
// and scan.MergeRuns on the same runs — the single-process merge the
// distributed tier claims byte-compatibility with. The same bytes, taken as
// a query the coordinator accepts, must reach a shard through the
// coordinator's wire form unchanged, whether or not they are UTF-8.
func FuzzCoordMerge(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{255, 0, 255, 0}, uint8(7))
	f.Add([]byte("M\xfcnchen"), uint8(2))               // Latin-1 ü: not UTF-8
	f.Add([]byte("Z\xc3\xbcrich\xc3"), uint8(4))        // UTF-8 ü, then a cut sequence
	f.Add([]byte("\xef\xbf\xbd\xed\xa0\x80"), uint8(1)) // U+FFFD itself, then a surrogate
	f.Add([]byte(`\u2028 \\u2029`+"\u2028"), uint8(2))  // a backslash before "u2028", then U+2028 itself
	f.Fuzz(func(t *testing.T, raw []byte, nrunsRaw uint8) {
		// The client sends the bytes as ExactQuery spells them; whatever
		// the coordinator accepts (it rejects an empty or oversize text), it
		// forwards in a body the shard reads back to the same query.
		read := func(body []byte) ([]core.Query, error) {
			return httpapi.Limits{}.ReadBatch(httptest.NewRecorder(),
				httptest.NewRequest(http.MethodPost, "/search/batch", bytes.NewReader(body)))
		}
		q := core.Query{Text: string(raw), K: 1}
		client, err := json.Marshal(httpapi.BatchRequest{Queries: []httpapi.BatchQuery{httpapi.ExactQuery(q.Text, q.K)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := read(client); err == nil {
			body, err := forwardBody([]core.Query{q})
			if err != nil {
				t.Fatal(err)
			}
			if qs, err := read(body); err != nil || qs[0] != q {
				t.Fatalf("query %+v arrives at the shard as %+v (err %v)", q, qs, err)
			}
		}

		nruns := int(nrunsRaw)%8 + 1

		// Derive a set of unique IDs with per-ID dists and strings from the
		// raw bytes, and cut [0, span) into nruns contiguous shards at
		// points the bytes pick (a shard may be empty).
		ids := make([]int32, 0, len(raw))
		seen := map[int32]bool{}
		for i, b := range raw {
			id := int32(i/4)*97 + int32(b)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		span := 1
		if len(ids) > 0 {
			span = int(ids[len(ids)-1]) + 1
		}
		cuts := []int{0, span}
		for j := 1; j < nruns; j++ {
			b := 0
			if len(raw) > 0 {
				b = int(raw[j*7%len(raw)])
			}
			cuts = append(cuts, span*b/256)
		}
		sort.Ints(cuts)
		match := func(id int32) httpapi.MatchJSON {
			return httpapi.MatchJSON{ID: id, String: fmt.Sprintf("s%d", id), Dist: int(id) % 5}
		}

		c := &Coordinator{}
		per := make([]*httpapi.BatchResponse, nruns)
		var flat []scan.Match
		next := 0
		for si := range per {
			lo, hi := cuts[si], cuts[si+1]
			c.shards = append(c.shards, &shardState{count: hi - lo})
			r := httpapi.BatchResult{Query: "q", K: 1}
			for ; next < len(ids) && int(ids[next]) < hi; next++ {
				m := match(ids[next])
				flat = append(flat, scan.Match{ID: m.ID, Dist: m.Dist})
				m.ID -= int32(lo) // the shard answers with local IDs
				r.Matches = append(r.Matches, m)
			}
			per[si] = &httpapi.BatchResponse{Results: []httpapi.BatchResult{r}}
		}
		c.rebase()
		got := c.gather(1, per)[0].Matches

		// Oracle 1: the sorted set.
		if len(got) != len(ids) {
			t.Fatalf("gathered %d matches, want %d", len(got), len(ids))
		}
		for i, id := range ids {
			if want := match(id); got[i] != want {
				t.Fatalf("gather[%d] = %+v, want %+v", i, got[i], want)
			}
		}
		if len(ids) == 0 && got != nil {
			t.Fatalf("empty gather returned non-nil %v", got)
		}

		// Oracle 2: scan.MergeRuns over the concatenated runs must agree on
		// the {ID, Dist} projection.
		ref := scan.MergeRuns(flat)
		if len(ref) != len(got) {
			t.Fatalf("scan.MergeRuns length %d, coordinator gather %d", len(ref), len(got))
		}
		for i := range ref {
			if ref[i].ID != got[i].ID || ref[i].Dist != got[i].Dist {
				t.Fatalf("divergence from scan.MergeRuns at %d: %+v vs %+v", i, ref[i], got[i])
			}
		}
	})
}
