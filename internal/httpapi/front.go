package httpapi

// The request contract of both HTTP tiers, a shard server (Server) and the
// coordinator in front of a fleet of them (internal/distrib): what a query
// may look like, which status a bad request earns, and how a request is
// counted. It is written here once and the coordinator calls it, so a
// request the fleet would reject is rejected at the coordinator with the
// same status and message, without a round trip.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"simsearch/internal/core"
	"simsearch/internal/metrics"
)

// Limits are the request limits an operator sets, on simserve and simcoord
// alike (-maxk, -maxbatch). A zero field takes its DefaultLimits value.
type Limits struct {
	// MaxK caps the accepted edit threshold, so one request cannot trigger
	// an effectively unbounded scan.
	MaxK int
	// MaxBatch caps the number of queries in one /search/batch request.
	MaxBatch int
}

// DefaultLimits returns the limits a zero Limits field takes: MaxK 16 (the
// paper's largest k) and MaxBatch 1024.
func DefaultLimits() Limits { return Limits{MaxK: 16, MaxBatch: 1024} }

// withDefaults returns l with each zero field at its DefaultLimits value.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxK <= 0 {
		l.MaxK = d.MaxK
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = d.MaxBatch
	}
	return l
}

// The fixed part of the contract.
const (
	// maxQueryLen caps the byte length of a query text and of a string
	// written to a live engine: the DP cost of one comparison grows with
	// it, so an oversize text is rejected before any engine work.
	maxQueryLen = 1024
	// maxBody caps a POST body in bytes while it is read; the MaxBatch
	// check alone would run only after an arbitrarily large body had been
	// read into memory. A batch the coordinator accepts is forwarded at
	// about its client's size, so the shards accept it too.
	maxBody = 1 << 20
	// maxTopK clamps /topk's n, so one request cannot force an arbitrarily
	// large result allocation; the closest maxTopK neighbours are still
	// the correct prefix of the answer asked for.
	maxTopK = 100
	// defaultK is the threshold of a query that names none.
	defaultK = 2
)

// Error is a request answered with an error: the status it earns and the
// message of its JSON error payload.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

func badRequest(msg string) *Error { return &Error{Status: http.StatusBadRequest, Msg: msg} }

// The 400s a query or a body earns for how it is spelled, before any limit
// is checked; an /insert or /delete body that is not valid UTF-8 earns the
// first.
var (
	errBodyNotUTF8    = badRequest("request body is not valid UTF-8: send query bytes that are not UTF-8 in a batch's q_b64")
	errBothQueryForms = badRequest("a query sets both q and q_b64")
	errBadQB64        = badRequest("q_b64 is not standard padded base64")
)

// check is the query check of both tiers, on every query endpoint and on
// every query of a batch: the text (q, or q_b64 decoded) is present and at
// most maxQueryLen bytes, and k, defaultK when absent, lies in [0, MaxK].
func (l Limits) check(bq BatchQuery) (core.Query, error) {
	text, err := bq.text()
	switch {
	case err != nil:
		return core.Query{}, err
	case text == "":
		return core.Query{}, badRequest("missing q parameter")
	case len(text) > maxQueryLen:
		return core.Query{}, badRequest("query text exceeds the maximum of " + strconv.Itoa(maxQueryLen) + " bytes")
	}
	k, maxK := defaultK, l.withDefaults().MaxK
	if bq.K != nil {
		k = *bq.K
	}
	if k < 0 || k > maxK {
		return core.Query{}, badRequest("the edit threshold must be an integer from 0 to " + strconv.Itoa(maxK))
	}
	return core.Query{Text: text, K: k}, nil
}

// SearchQuery reads and checks the query of a GET /search request: q, and k
// when it is given.
func (l Limits) SearchQuery(r *http.Request) (core.Query, error) {
	return l.urlQuery(r, "k", defaultK)
}

// urlQuery reads and checks a query from the URL: q and the threshold
// parameter kParam, kDefault when absent. A threshold that is not an
// integer fails the range check, after the text's checks.
func (l Limits) urlQuery(r *http.Request, kParam string, kDefault int) (core.Query, error) {
	v := r.URL.Query()
	k, ok := intParam(v.Get(kParam), kDefault)
	if !ok {
		k = -1
	}
	return l.check(BatchQuery{Q: v.Get("q"), K: &k})
}

// intParam parses a URL parameter's value, def when it is empty.
func intParam(v string, def int) (int, bool) {
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	return n, err == nil
}

// ReadBatch reads and checks a POST /search/batch body: at most maxBody
// bytes of valid UTF-8 JSON, holding one to MaxBatch queries that each pass
// the query check.
func (l Limits) ReadBatch(w http.ResponseWriter, r *http.Request) ([]core.Query, error) {
	var req BatchRequest
	if err := readJSON(w, r, &req); err != nil {
		return nil, err
	}
	maxBatch := l.withDefaults().MaxBatch
	switch {
	case len(req.Queries) == 0:
		return nil, badRequest("empty batch")
	case len(req.Queries) > maxBatch:
		return nil, &Error{Status: http.StatusRequestEntityTooLarge,
			Msg: "batch exceeds the maximum of " + strconv.Itoa(maxBatch) + " queries"}
	}
	qs := make([]core.Query, len(req.Queries))
	for i, bq := range req.Queries {
		q, err := l.check(bq)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// readJSON reads a POST body of at most maxBody bytes into v. The body must
// be valid UTF-8: decoding JSON turns each invalid byte inside a string into
// U+FFFD, which would answer a different query, or store a different
// string, than the one sent.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return &Error{Status: http.StatusRequestEntityTooLarge,
			Msg: "request body exceeds the maximum of " + strconv.Itoa(maxBody) + " bytes"}
	case err != nil:
		return badRequest(err.Error())
	case !utf8.Valid(raw):
		return errBodyNotUTF8
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return badRequest("invalid JSON: " + err.Error())
	}
	return nil
}

// BatchRequest is the /search/batch payload: a list of queries answered as
// one batch (shard-parallel when the engine is the sharded executor).
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchQuery is one query in a batch request. A JSON string holds only
// valid UTF-8, so Q suits text; QB64 carries any bytes exactly, in standard
// padded base64 (ExactQuery). Set one of the two.
type BatchQuery struct {
	Q    string `json:"q,omitempty"`
	QB64 string `json:"q_b64,omitempty"`
	K    *int   `json:"k,omitempty"` // nil → default 2
}

// ExactQuery returns the BatchQuery that carries text byte for byte: in Q
// when text is valid UTF-8 and base64-encoded in QB64 only when it is not,
// with K left out when k is the default. So a batch the coordinator
// forwards is no longer than its client's, give or take escapes.
func ExactQuery(text string, k int) BatchQuery {
	bq := BatchQuery{Q: text}
	if !utf8.ValidString(text) {
		bq = BatchQuery{QB64: base64.StdEncoding.EncodeToString([]byte(text))}
	}
	if k != defaultK {
		bq.K = &k
	}
	return bq
}

// text returns the query's bytes: QB64 decoded when it is set, else Q.
func (bq BatchQuery) text() (string, error) {
	if bq.QB64 == "" {
		return bq.Q, nil
	}
	if bq.Q != "" {
		return "", errBothQueryForms
	}
	b, err := base64.StdEncoding.DecodeString(bq.QB64)
	if err != nil {
		return "", errBadQB64
	}
	return string(b), nil
}

// Endpoint is a handler of either tier. It writes its response, or returns
// the error to answer with instead: an *Error with its status, a deadline
// with 504, any other error with 503 and its text.
type Endpoint func(w http.ResponseWriter, r *http.Request) error

// Front is a tier's HTTP front: a mux whose every endpoint sits behind the
// same method check and instrumentation, with the tier's metric registry
// served on GET /metrics. Each endpoint gets request, 4xx and 5xx counters
// and a latency histogram, named prefix+"_requests_total",
// prefix+"_errors_total" and prefix+"_request_seconds" and labelled with
// the endpoint: "simsearch_http" on a shard server, "simsearch_coord" on
// the coordinator.
type Front struct {
	mux    *http.ServeMux
	reg    *metrics.Registry
	prefix string
	// after, when set, sees every request with its endpoint and latency
	// once it is counted.
	after func(endpoint string, r *http.Request, took time.Duration)
}

// NewFront returns a Front with GET /metrics mounted, its metrics named
// under prefix.
func NewFront(prefix string) *Front {
	f := &Front{mux: http.NewServeMux(), reg: metrics.NewRegistry(), prefix: prefix}
	f.Handle(http.MethodGet, "/metrics", "metrics", func(w http.ResponseWriter, r *http.Request) error {
		f.reg.Handler().ServeHTTP(w, r)
		return nil
	})
	return f
}

// Registry returns the front's metric registry, so callers can register
// their own collectors (and tests can scrape directly).
func (f *Front) Registry() *metrics.Registry { return f.reg }

// ServeHTTP implements http.Handler.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// Handle mounts h at pattern under the endpoint label. A request with
// another method than method is answered 405. Accounting runs in a defer,
// so a panicking handler is counted too: the panic is recovered into a 500
// (when no header is out yet) and counted as a 5xx. The metric instances
// are resolved here, so a request costs a few atomic operations.
func (f *Front) Handle(method, pattern, endpoint string, h Endpoint) {
	lbl := metrics.L("endpoint", endpoint)
	reqs := f.reg.Counter(f.prefix+"_requests_total", "Requests served, by endpoint.", lbl)
	errs4 := f.reg.Counter(f.prefix+"_errors_total",
		"Error responses, by endpoint and class.", lbl, metrics.L("class", "4xx"))
	errs5 := f.reg.Counter(f.prefix+"_errors_total",
		"Error responses, by endpoint and class.", lbl, metrics.L("class", "5xx"))
	lat := f.reg.Histogram(f.prefix+"_request_seconds",
		"Request latency, by endpoint.", metrics.DefLatencyBuckets, lbl)
	f.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				sw.code = http.StatusInternalServerError
				if !sw.wrote {
					fail(sw, http.StatusInternalServerError, "internal error")
				}
			}
			took := time.Since(start)
			reqs.Inc()
			switch {
			case sw.code >= 500:
				errs5.Inc()
			case sw.code >= 400:
				errs4.Inc()
			}
			lat.Observe(took)
			if f.after != nil {
				f.after(endpoint, r, took)
			}
		}()
		var err error
		if r.Method != method {
			err = &Error{Status: http.StatusMethodNotAllowed, Msg: method + " only"}
		} else {
			err = h(sw, r)
		}
		if err != nil {
			writeError(sw, err)
		}
	}))
}

// writeError answers err as Endpoint documents.
func writeError(w http.ResponseWriter, err error) {
	var e *Error
	switch {
	case errors.As(err, &e):
		fail(w, e.Status, e.Msg)
	case errors.Is(err, context.DeadlineExceeded):
		fail(w, http.StatusGatewayTimeout, "query deadline exceeded")
	default:
		fail(w, http.StatusServiceUnavailable, err.Error())
	}
}

// errorResponse is the error payload.
type errorResponse struct {
	Error string `json:"error"`
}

func fail(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// WriteJSON answers 200 with v as its JSON payload.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// statusWriter records the response code for the instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true // an implicit 200 counts as written
	return w.ResponseWriter.Write(b)
}

// Flush passes flushes through to the wrapped writer. Embedding only carries
// the http.ResponseWriter method set, so without this the wrapper silently
// dropped http.Flusher for every handler — streaming responses such as
// /metrics scrapes and the gated pprof trace endpoint buffered instead.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
