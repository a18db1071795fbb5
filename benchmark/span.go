package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simsearch"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the index (in the recorder) of the span that caused this
// one, -1 for the outermost.
type span struct {
	Name       string
	Req        int64
	Parent     int32
	Start, End int64 // ns since the recorder's epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRef names a recorded span: what a layer hands to the layer it calls.
type spanRef struct {
	req int64
	idx int32
}

var noSpan = spanRef{req: -1, idx: -1}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	nextReq atomic.Int64
	// links carries the causing span past the result cache: the cache runs a
	// miss under its own background context (the flight outlives any one
	// waiter), so the span reference in the request context stops there.
	// The decorator above the cache publishes its span under the query; the
	// one below finds it by the same query.
	links sync.Map // simsearch.Query -> spanRef
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent; a parent without a request starts a new one.
func (r *recorder) begin(name string, parent spanRef) spanRef {
	req := parent.req
	if req < 0 {
		req = r.nextReq.Add(1)
	}
	r.mu.Lock()
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent.idx,
		Start: int64(time.Since(r.epoch))})
	r.mu.Unlock()
	return spanRef{req: req, idx: idx}
}

func (r *recorder) end(ref spanRef) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[ref.idx].End = now
	r.mu.Unlock()
}

// mark returns the number of spans recorded so far, so a caller can later
// take the spans of one pass with since.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// since returns a copy of the spans recorded from mark on, with parent
// indices rebased to the copy (a parent before the mark becomes -1).
func (r *recorder) since(mark int) []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans[mark:]...)
	r.mu.Unlock()
	for i := range out {
		if out[i].Parent >= 0 {
			out[i].Parent -= int32(mark)
			if out[i].Parent < 0 {
				out[i].Parent = -1
			}
		}
	}
	return out
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// tracedSearcher is the decorator inserted between two layers in a traced
// run. It forwards everything httpapi and the cache look for on an engine
// (context search, context batch, Name, Len, Unwrap), so the chain walk,
// the /metrics registration and the context path are those of the untraced
// composition.
type tracedSearcher struct {
	inner simsearch.Searcher
	name  string
	rec   *recorder
}

func (t *tracedSearcher) Name() string               { return t.inner.Name() }
func (t *tracedSearcher) Len() int                   { return t.inner.Len() }
func (t *tracedSearcher) Unwrap() simsearch.Searcher { return t.inner }

func (t *tracedSearcher) Search(q simsearch.Query) []simsearch.Match {
	ms, _ := t.SearchContext(context.Background(), q)
	return ms
}

func (t *tracedSearcher) SearchContext(ctx context.Context, q simsearch.Query) ([]simsearch.Match, error) {
	parent, ok := spanFrom(ctx)
	if !ok {
		parent = noSpan
		if v, ok := t.rec.links.Load(q); ok {
			parent = v.(spanRef)
		}
	}
	ref := t.rec.begin(t.name, parent)
	t.rec.links.Store(q, ref)
	ms, err := simsearch.SearchContext(withSpan(ctx, ref), t.inner, q)
	t.rec.links.CompareAndDelete(q, ref)
	t.rec.end(ref)
	return ms, err
}

func (t *tracedSearcher) SearchBatchContext(ctx context.Context, qs []simsearch.Query) ([]simsearch.QueryResult, error) {
	parent, ok := spanFrom(ctx)
	if !ok {
		parent = noSpan
	}
	ref := t.rec.begin(t.name+".batch", parent)
	res, err := simsearch.SearchBatchContext(withSpan(ctx, ref), t.inner, qs)
	t.rec.end(ref)
	return res, err
}

// spanHeader carries the client's span to the handler wrapper as "req.idx".
const spanHeader = "X-Bench-Span"

func (ref spanRef) header() string { return fmt.Sprintf("%d.%d", ref.req, ref.idx) }

// handler wraps an http.Handler in a span caused by the client span named
// in the request header.
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent := noSpan
		if v := req.Header.Get(spanHeader); v != "" {
			if _, err := fmt.Sscanf(v, "%d.%d", &parent.req, &parent.idx); err != nil {
				parent = noSpan
			}
		}
		ref := r.begin(name, parent)
		h.ServeHTTP(w, req.WithContext(withSpan(req.Context(), ref)))
		r.end(ref)
	})
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := spans[k].Start, spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// hasChild reports, per span, whether any span names it as parent.
func hasChild(spans []span) []bool {
	out := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = true
		}
	}
	return out
}

// writeSpans writes spans as CSV: name,req,parent,start_ns,end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,req,parent,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.Name, s.Req, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
