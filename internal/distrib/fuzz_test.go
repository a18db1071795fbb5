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

// FuzzCoordMerge drives the coordinator's fan-in merge with arbitrary
// ID-sorted runs (unique IDs across runs, as shard base-offsetting
// guarantees) and checks it against two oracles: a plain stable sort of the
// concatenation, and scan.MergeRuns on the same runs — the single-process
// merge the distributed tier claims byte-compatibility with. The same bytes,
// taken as a query the coordinator accepts, must reach a shard through the
// coordinator's wire form unchanged, whether or not they are UTF-8.
func FuzzCoordMerge(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{255, 0, 255, 0}, uint8(7))
	f.Add([]byte("M\xfcnchen"), uint8(2))               // Latin-1 ü: not UTF-8
	f.Add([]byte("Z\xc3\xbcrich\xc3"), uint8(4))        // UTF-8 ü, then a cut sequence
	f.Add([]byte("\xef\xbf\xbd\xed\xa0\x80"), uint8(1)) // U+FFFD itself, then a surrogate
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
		// raw bytes, then deal them round-robin into nruns ID-ascending runs
		// (round-robin over a sorted unique set keeps every run sorted).
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

		runs := make([][]httpapi.MatchJSON, nruns)
		var flat []scan.Match
		for i, id := range ids {
			m := httpapi.MatchJSON{ID: id, String: fmt.Sprintf("s%d", id), Dist: int(id) % 5}
			runs[i%nruns] = append(runs[i%nruns], m)
		}
		for _, run := range runs {
			for _, m := range run {
				flat = append(flat, scan.Match{ID: m.ID, Dist: m.Dist})
			}
		}

		got := mergeRuns(runs)

		// Oracle 1: stable sort of everything by ID.
		want := make([]httpapi.MatchJSON, 0, len(ids))
		for _, id := range ids {
			want = append(want, httpapi.MatchJSON{ID: id, String: fmt.Sprintf("s%d", id), Dist: int(id) % 5})
		}
		if len(got) != len(want) {
			t.Fatalf("merged %d matches, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("merge[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
		if len(ids) == 0 && got != nil {
			t.Fatalf("empty merge returned non-nil %v", got)
		}

		// Oracle 2: scan.MergeRuns over the concatenated runs must agree on
		// the {ID, Dist} projection.
		ref := scan.MergeRuns(flat)
		if len(ref) != len(got) {
			t.Fatalf("scan.MergeRuns length %d, coordinator merge %d", len(ref), len(got))
		}
		for i := range ref {
			if ref[i].ID != got[i].ID || ref[i].Dist != got[i].Dist {
				t.Fatalf("divergence from scan.MergeRuns at %d: %+v vs %+v", i, ref[i], got[i])
			}
		}
	})
}
