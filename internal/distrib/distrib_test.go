package distrib

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/exec"
	"simsearch/internal/httpapi"
)

// fleet is a set of in-process shard servers over contiguous partitions of
// one dataset, plus a coordinator in front of them.
type fleet struct {
	data    []string
	servers []*httptest.Server
	coord   *Coordinator
	ts      *httptest.Server
}

// startFleet stands up p shard servers over Partition(len(data), p) — each an
// httpapi.Server over the paper's §3.4 scan — and a
// discovered coordinator. wrap, when non-nil, decorates shard i replica 0's
// handler (fault injection); extraReplica lists shard indices that get a
// second, undecorated replica.
func startFleet(t *testing.T, data []string, p int, opts Options,
	wrap func(shard, rep int, h http.Handler) http.Handler, extraReplica ...int) *fleet {
	t.Helper()
	f := &fleet{data: data}
	specs := make([]ShardSpec, 0, p)
	second := map[int]bool{}
	for _, i := range extraReplica {
		second[i] = true
	}
	for i, r := range Partition(len(data), p) {
		part := data[r[0]:r[1]]
		mkRep := func(rep int) *httptest.Server {
			var h http.Handler = httpapi.New(core.NewSequential(part), part)
			if wrap != nil {
				h = wrap(i, rep, h)
			}
			return httptest.NewServer(h)
		}
		ts := mkRep(0)
		f.servers = append(f.servers, ts)
		spec := ShardSpec{Replicas: []string{ts.URL}}
		if second[i] {
			ts2 := mkRep(1)
			f.servers = append(f.servers, ts2)
			spec.Replicas = append(spec.Replicas, ts2.URL)
		}
		specs = append(specs, spec)
	}
	coord, err := New(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	f.ts = httptest.NewServer(coord)
	t.Cleanup(f.close)
	return f
}

func (f *fleet) close() {
	f.ts.Close()
	for _, s := range f.servers {
		s.Close()
	}
}

func postBatch(t *testing.T, url, body string) (*http.Response, httpapi.BatchResponse) {
	t.Helper()
	resp, err := http.Post(url+"/search/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br httpapi.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, br
}

// batchBody renders the canonical batch request for a set of queries.
func batchBody(t *testing.T, qs []core.Query) string {
	t.Helper()
	req := httpapi.BatchRequest{Queries: make([]httpapi.BatchQuery, len(qs))}
	for i, q := range qs {
		k := q.K
		req.Queries[i] = httpapi.BatchQuery{Q: q.Text, K: &k}
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// testQueries builds a deterministic near-match workload over data.
func testQueries(data []string, n int) []core.Query {
	texts := dataset.Queries(data, n, 2, 42)
	qs := make([]core.Query, n)
	for i, s := range texts {
		qs[i] = core.Query{Text: s, K: i % 4}
	}
	return qs
}

// TestDifferentialByteIdentical is the load-bearing contract test: the
// coordinator's /search/batch results must be byte-identical to a single
// httpapi server over a single-process exec.Sharded with the same partition
// layout — for several shard counts, including p=1.
func TestDifferentialByteIdentical(t *testing.T) {
	data := dataset.Cities(150, 7)
	qs := testQueries(data, 40)
	body := batchBody(t, qs)

	for _, p := range []int{1, 2, 3, 5} {
		f := startFleet(t, data, p, Options{}, nil)

		single := httptest.NewServer(httpapi.New(exec.New(data, exec.Options{Shards: p}), data))
		rd, dr := postBatch(t, f.ts.URL, body)
		rs, sr := postBatch(t, single.URL, body)
		single.Close()
		if rd.StatusCode != http.StatusOK || rs.StatusCode != http.StatusOK {
			t.Fatalf("p=%d: status distrib=%d single=%d", p, rd.StatusCode, rs.StatusCode)
		}
		// Compare the Results payloads byte for byte (TookµS legitimately
		// differs between the two runs).
		db, _ := json.Marshal(dr.Results)
		sb, _ := json.Marshal(sr.Results)
		if string(db) != string(sb) {
			t.Errorf("p=%d: coordinator results diverge from single-process run:\n distrib: %s\n single:  %s",
				p, db, sb)
		}
	}
}

// dyingHandler kills the TCP connection of every batch RPC it receives —
// the mid-batch shard-death fault. Health probes and /stats pass through so
// discovery works and only query traffic dies.
type dyingHandler struct {
	inner  http.Handler
	deaths atomic.Int32
}

func (d *dyingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/search/batch" {
		d.deaths.Add(1)
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test server writer is not a Hijacker")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	d.inner.ServeHTTP(w, r)
}

// TestDifferentialMidBatchShardDeath proves the byte-identical contract
// survives a replica dying mid-batch: one of shard 1's replicas drops the TCP
// connection of every batch RPC it receives, the coordinator fails over to
// the healthy replica, and results stay identical to the single-process run.
func TestDifferentialMidBatchShardDeath(t *testing.T) {
	data := dataset.Cities(120, 11)
	qs := testQueries(data, 30)
	body := batchBody(t, qs)
	const p = 3

	dying := &dyingHandler{}
	f := startFleet(t, data, p, Options{},
		func(shard, rep int, h http.Handler) http.Handler {
			if shard == 1 && rep == 0 {
				dying.inner = h
				return dying
			}
			return h
		}, 1)

	single := httptest.NewServer(httpapi.New(exec.New(data, exec.Options{Shards: p}), data))
	defer single.Close()
	_, sr := postBatch(t, single.URL, body)
	want, _ := json.Marshal(sr.Results)

	// Round-robin routes shard 1's batches across both replicas, so some
	// rounds hit the dying replica mid-batch and must fail over.
	for round := 1; round <= 4; round++ {
		rd, dr := postBatch(t, f.ts.URL, body)
		if rd.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d", round, rd.StatusCode)
		}
		got, _ := json.Marshal(dr.Results)
		if string(got) != string(want) {
			t.Errorf("round %d: results diverge after shard death:\n got:  %s\n want: %s", round, got, want)
		}
	}

	// The dead replica's failures must be on the books.
	var st statsResponse
	resp, err := http.Get(f.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if d := dying.deaths.Load(); d == 0 {
		t.Fatal("fault injection never fired: no batch RPC reached the dying replica")
	}
	if st.Shards[1].Errors == 0 {
		t.Error("shard 1 reported no RPC errors despite the injected death")
	}
}

// TestErrorLadder is the rejection ladder of both HTTP tiers, from one
// table: every case runs against a shard server and against a coordinator
// in front of it, configured with the same limits. Each must earn the
// status it lists and the same message from both tiers, and the
// coordinator must reject it without a shard RPC. (503 shedding and 504
// deadlines have tests of their own below.)
func TestErrorLadder(t *testing.T) {
	data := dataset.Cities(40, 3)
	lim := httpapi.Limits{MaxK: 3, MaxBatch: 2}
	f := startFleet(t, data, 1, Options{Limits: lim},
		func(_, _ int, h http.Handler) http.Handler {
			h.(*httpapi.Server).Limits = lim
			return h
		})
	const maxQueryLen, maxBody = 1024, 1 << 20 // the contract's fixed caps
	long := strings.Repeat("x", maxQueryLen+1)
	batch := func(queries string) string { return `{"queries":[` + queries + `]}` }
	cases := []struct {
		name, method, path, body string
		code                     int
		msg                      string // a part of the message
	}{
		{"batch method", http.MethodGet, "/search/batch", "", http.StatusMethodNotAllowed, "POST only"},
		{"search method", http.MethodPost, "/search?q=x", "", http.StatusMethodNotAllowed, "GET only"},
		{"stats method", http.MethodPost, "/stats", "", http.StatusMethodNotAllowed, "GET only"},
		{"healthz method", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed, "GET only"},
		{"metrics method", http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed, "GET only"},
		{"search no q", http.MethodGet, "/search", "", http.StatusBadRequest, "missing q"},
		{"search empty q", http.MethodGet, "/search?q=&k=1", "", http.StatusBadRequest, "missing q"},
		{"search bad k", http.MethodGet, "/search?q=x&k=abc", "", http.StatusBadRequest, "from 0 to 3"},
		{"search negative k", http.MethodGet, "/search?q=x&k=-1", "", http.StatusBadRequest, "from 0 to 3"},
		{"search k over max", http.MethodGet, "/search?q=x&k=4", "", http.StatusBadRequest, "from 0 to 3"},
		{"search q too long", http.MethodGet, "/search?q=" + long, "", http.StatusBadRequest, "1024 bytes"},
		{"search q too long, bad k", http.MethodGet, "/search?k=x&q=" + long, "", http.StatusBadRequest, "1024 bytes"},
		{"batch bad json", http.MethodPost, "/search/batch", "not json", http.StatusBadRequest, "invalid JSON"},
		{"batch k not a number", http.MethodPost, "/search/batch", batch(`{"q":"x","k":"1"}`), http.StatusBadRequest, "invalid JSON"},
		{"batch empty", http.MethodPost, "/search/batch", batch(""), http.StatusBadRequest, "empty batch"},
		{"batch empty q", http.MethodPost, "/search/batch", batch(`{"q":""}`), http.StatusBadRequest, "missing q"},
		{"batch bad k", http.MethodPost, "/search/batch", batch(`{"q":"x","k":-1}`), http.StatusBadRequest, "from 0 to 3"},
		{"batch k over max", http.MethodPost, "/search/batch", batch(`{"q":"x","k":4}`), http.StatusBadRequest, "from 0 to 3"},
		{"batch q too long", http.MethodPost, "/search/batch", batch(`{"q":"x"},{"q":"` + long + `"}`), http.StatusBadRequest, "1024 bytes"},
		{"batch q_b64 too long", http.MethodPost, "/search/batch",
			batch(`{"q_b64":"` + base64.StdEncoding.EncodeToString([]byte(long)) + `"}`), http.StatusBadRequest, "1024 bytes"},
		{"batch not UTF-8", http.MethodPost, "/search/batch", batch("{\"q\":\"M\xfcnchen\"}"), http.StatusBadRequest, "not valid UTF-8"},
		{"batch q and q_b64", http.MethodPost, "/search/batch", batch(`{"q":"x","q_b64":"eA=="}`), http.StatusBadRequest, "both q and q_b64"},
		{"batch bad q_b64", http.MethodPost, "/search/batch", batch(`{"q_b64":"e@=="}`), http.StatusBadRequest, "base64"},
		{"batch too many", http.MethodPost, "/search/batch", batch(`{"q":"a"},{"q":"b"},{"q":"c"}`),
			http.StatusRequestEntityTooLarge, "maximum of 2 queries"},
		{"body too big", http.MethodPost, "/search/batch", batch(`{"q":"` + strings.Repeat("ab", maxBody/2) + `"}`),
			http.StatusRequestEntityTooLarge, "maximum of 1048576 bytes"},
	}
	shard := f.servers[0].URL
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rpcs := f.coord.shards[0].rpcs.Value()
			codeS, msgS := do(t, tc.method, shard+tc.path, tc.body)
			codeC, msgC := do(t, tc.method, f.ts.URL+tc.path, tc.body)
			if codeS != tc.code || !strings.Contains(msgS, tc.msg) {
				t.Errorf("shard server: %d %q, want %d and a message with %q", codeS, msgS, tc.code, tc.msg)
			}
			if codeC != codeS || msgC != msgS {
				t.Errorf("coordinator: %d %q, shard server: %d %q", codeC, msgC, codeS, msgS)
			}
			if n := f.coord.shards[0].rpcs.Value() - rpcs; n != 0 {
				t.Errorf("the coordinator sent %d shard RPCs for a request it rejects", n)
			}
		})
	}
}

// TestForwardedBatchFitsTheShards: a valid batch under the body cap is
// forwarded at about the client's size. One input is ASCII queries that
// leave k at its default and spell <, > and &; the other puts U+2028 between
// two letters, raw as the client sent it. A forward that spelled any of
// those characters in six bytes, or added every default k, would be over
// the cap the shards share with the coordinator: 413 from every shard, 502
// here.
func TestForwardedBatchFitsTheShards(t *testing.T) {
	const maxBody = 1 << 20
	f := startFleet(t, dataset.Cities(40, 3), 2, Options{}, nil)
	// 1,024 queries (the default MaxBatch), each under the 1,024-byte cap.
	for _, tc := range []struct {
		name string
		text func(i int) string
	}{
		// 1,014 or 1,015 bytes: the body is a few bytes under maxBody.
		{"html", func(i int) string { return strings.Repeat("a<b>&", 203)[:1015-i/1000] }},
		// 1,013 bytes: a 1,046,541-byte body.
		{"line separators", func(int) string { return "a" + strings.Repeat("\u2028", 337) + "b" }},
	} {
		var body strings.Builder
		req := httpapi.BatchRequest{}
		body.WriteString(`{"queries":[`)
		for i := 0; i < 1024; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			body.WriteString(`{"q":"` + tc.text(i) + `"}`)
			req.Queries = append(req.Queries, httpapi.BatchQuery{Q: tc.text(i)})
		}
		body.WriteString(`]}`)
		escaped, err := json.Marshal(req)
		if n := body.Len(); n > maxBody || len(escaped) <= maxBody || err != nil {
			t.Fatalf("%s: the test body is %d bytes and %d escaped (%v), want one under %d and one over",
				tc.name, n, len(escaped), err, maxBody)
		}
		for _, url := range []string{f.servers[0].URL, f.ts.URL} {
			resp, br := postBatch(t, url, body.String())
			if resp.StatusCode != http.StatusOK || len(br.Results) != 1024 {
				t.Errorf("%s: %s: %d-byte batch: status %d, %d results; want 200 and 1024",
					tc.name, url, body.Len(), resp.StatusCode, len(br.Results))
			}
		}
	}
}

// do sends one request and returns its status and error message.
func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("%s %s: status %d without an error payload: %v", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, e.Error
}

// blockUntilCancel answers /search/batch only after the request context dies,
// simulating an arbitrarily slow shard without a test sleep. The body must be
// drained first: net/http only watches for client disconnects once the
// request body hits EOF, so blocking with an unread body would never see the
// coordinator hang up.
func blockUntilCancel(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/search/batch" {
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestDeadline504 completes the ladder: a scatter that outlives the
// coordinator's Timeout answers 504, on /search/batch and /search alike.
func TestDeadline504(t *testing.T) {
	data := dataset.Cities(20, 5)
	f := startFleet(t, data, 2, Options{Timeout: 30 * time.Millisecond},
		func(shard, rep int, h http.Handler) http.Handler { return blockUntilCancel(h) })

	resp, br := postBatch(t, f.ts.URL, `{"queries":[{"q":"x"}]}`)
	_ = br
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("batch deadline: status %d, want 504", resp.StatusCode)
	}
	r2, err := http.Get(f.ts.URL + "/search?q=x&k=1")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("search deadline: status %d, want 504", r2.StatusCode)
	}
}

// TestAdmissionControl503 completes the ladder's shedding rung: with
// MaxInFlight=1 and one admitted request parked on a blocking shard, the next
// request is shed with 503 and a Retry-After header, and the shed counter
// moves.
func TestAdmissionControl503(t *testing.T) {
	data := dataset.Cities(20, 9)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var gate atomic.Int32
	f := startFleet(t, data, 1, Options{MaxInFlight: 1},
		func(shard, rep int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/search/batch" && gate.Add(1) == 1 {
					entered <- struct{}{}
					<-release
				}
				h.ServeHTTP(w, r)
			})
		})
	defer close(release)

	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(f.ts.URL+"/search/batch", "application/json",
			strings.NewReader(`{"queries":[{"q":"x"}]}`))
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-entered // the first request is admitted and parked inside the shard RPC

	resp, err := http.Post(f.ts.URL+"/search/batch", "application/json",
		strings.NewReader(`{"queries":[{"q":"y"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carried no Retry-After header")
	}

	release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}

	var st statsResponse
	r2, err := http.Get(f.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	json.NewDecoder(r2.Body).Decode(&st)
	if st.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed)
	}
}

// TestProberMarksDeadReplicaDown: a replica failing /healthz goes
// breaker-open after one probe sweep, /stats reports it down, the
// coordinator's own /healthz stays green (the shard still has a live
// replica), and traffic keeps flowing.
func TestProberMarksDeadReplicaDown(t *testing.T) {
	data := dataset.Cities(40, 17)
	var sick atomic.Bool
	sick.Store(true)
	f := startFleet(t, data, 1, Options{BreakerCooldown: time.Hour},
		func(shard, rep int, h http.Handler) http.Handler {
			if rep != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/healthz" && sick.Load() {
					http.Error(w, "sick", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		}, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.coord.ProbeOnce(ctx)

	var st statsResponse
	r, err := http.Get(f.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	reps := st.Shards[0].Replicas
	if len(reps) != 2 || reps[0].Up || !reps[1].Up {
		t.Fatalf("replica health after probe = %+v, want [down, up]", reps)
	}

	// Coordinator health: still one routable replica per shard → 200.
	hr, err := http.Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("coordinator /healthz = %d with a live replica remaining", hr.StatusCode)
	}

	// Queries keep flowing around the dead replica.
	resp, br := postBatch(t, f.ts.URL, `{"queries":[{"q":"`+data[1]+`","k":0}]}`)
	if resp.StatusCode != http.StatusOK || br.Results[0].Error != "" {
		t.Fatalf("query after probe-down failed: %d %+v", resp.StatusCode, br.Results)
	}

	// Recovery: the replica heals, the next sweep closes the breaker.
	sick.Store(false)
	f.coord.ProbeOnce(ctx)
	r2, err := http.Get(f.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	json.NewDecoder(r2.Body).Decode(&st)
	if reps := st.Shards[0].Replicas; !reps[0].Up {
		t.Errorf("replica not marked up after healing probe: %+v", reps)
	}
}

// TestCoordinatorMetricsExposed asserts the simsearch_coord_* families are
// scrapeable after traffic.
func TestCoordinatorMetricsExposed(t *testing.T) {
	data := dataset.Cities(30, 21)
	f := startFleet(t, data, 2, Options{}, nil)
	postBatch(t, f.ts.URL, `{"queries":[{"q":"`+data[0]+`","k":1}]}`)

	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := f.coord.Registry().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`simsearch_coord_requests_total{endpoint="batch"} 1`,
		`simsearch_coord_shard_rpcs_total{shard="0"} 1`,
		`simsearch_coord_shard_rpcs_total{shard="1"} 1`,
		"simsearch_coord_shard_rpc_seconds_count",
		"simsearch_coord_inflight_requests 0",
		"simsearch_coord_shed_total 0",
		`simsearch_coord_replica_up{replica="0",shard="0"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestSearchEndpoint exercises the coordinator's single-query surface.
func TestSearchEndpoint(t *testing.T) {
	data := dataset.Cities(80, 23)
	f := startFleet(t, data, 3, Options{}, nil)

	single := httptest.NewServer(httpapi.New(exec.New(data, exec.Options{Shards: 3}), data))
	defer single.Close()

	for _, q := range []string{data[0], data[len(data)-1], "zzzzz"} {
		var dr, sr httpapi.SearchResponse
		for _, tgt := range []struct {
			url string
			out *httpapi.SearchResponse
		}{{f.ts.URL, &dr}, {single.URL, &sr}} {
			resp, err := http.Get(tgt.url + "/search?k=2&q=" + url.QueryEscape(q))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(tgt.out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		db, _ := json.Marshal(dr.Matches)
		sb, _ := json.Marshal(sr.Matches)
		if string(db) != string(sb) {
			t.Errorf("q=%s: coordinator /search diverges: %s vs %s", q, db, sb)
		}
	}
}

// TestQueryBytesSurviveCoordinator: a query that is not valid UTF-8 — a
// Latin-1 name, or a UTF-8 one cut mid-sequence — is the question the shards
// answer, on GET /search and in a q_b64 batch alike, so the coordinator's
// answer equals one server's over the whole dataset. Re-encoding the query
// as a JSON string would have asked for U+FFFD in its place.
func TestQueryBytesSurviveCoordinator(t *testing.T) {
	data := append(dataset.Cities(60, 29), "M\xfcnchen", "Z\xc3\xbcrich", "K\xf6ln", "caf\xc3")
	f := startFleet(t, data, 3, Options{}, nil)
	single := httptest.NewServer(httpapi.New(exec.New(data, exec.Options{Shards: 3}), data))
	defer single.Close()

	queries := []string{"M\xfcnchen", "K\xf6ln", "caf\xc3", "Z\xc3\xbcric\xc3"}
	for _, q := range queries {
		var dr, sr httpapi.SearchResponse
		for _, tgt := range []struct {
			url string
			out *httpapi.SearchResponse
		}{{f.ts.URL, &dr}, {single.URL, &sr}} {
			resp, err := http.Get(tgt.url + "/search?k=0&q=" + url.QueryEscape(q))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(tgt.out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		db, _ := json.Marshal(dr.Matches)
		sb, _ := json.Marshal(sr.Matches)
		if len(sr.Matches) != 1 && q != "Z\xc3\xbcric\xc3" {
			t.Fatalf("q=%q: the single server found %s, want the one exact match", q, sb)
		}
		if string(db) != string(sb) {
			t.Errorf("q=%q: coordinator /search %s, single server %s", q, db, sb)
		}
	}

	req := httpapi.BatchRequest{}
	for _, q := range queries {
		req.Queries = append(req.Queries, httpapi.ExactQuery(q, 1))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rd, dr := postBatch(t, f.ts.URL, string(body))
	rs, sr := postBatch(t, single.URL, string(body))
	if rd.StatusCode != http.StatusOK || rs.StatusCode != http.StatusOK {
		t.Fatalf("q_b64 batch: status coordinator=%d single=%d", rd.StatusCode, rs.StatusCode)
	}
	db, _ := json.Marshal(dr.Results)
	sb, _ := json.Marshal(sr.Results)
	if string(db) != string(sb) {
		t.Errorf("q_b64 batch diverges:\n coordinator: %s\n single:      %s", db, sb)
	}
	if len(sr.Results[3].Matches) == 0 {
		t.Errorf("q_b64 batch: %q at k=1 found nothing, want Z\\xc3\\xbcrich", queries[3])
	}
}
