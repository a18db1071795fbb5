package httpapi

import (
	"net/http/httptest"
	"testing"

	"simsearch"
	"simsearch/internal/cache"
	"simsearch/internal/core"
	"simsearch/internal/scan"
)

// TestStatsScanSection checks that /stats reports a scan engine's rung and
// pool size through the cache decorator, and that the facade's deprecated
// BitParallel, which builds the cascade, reports the cascade's section over
// its arena and no scan section.
func TestStatsScanSection(t *testing.T) {
	eng := core.NewSequential(data, scan.WithStrategy(scan.ParallelManaged), scan.WithWorkers(4))
	ts := httptest.NewServer(New(cache.New(eng, cache.Options{Capacity: 8}), data))
	defer ts.Close()
	var resp statsResponse
	getJSON(t, ts.URL+"/stats", &resp)
	if resp.Scan == nil || resp.Scan.Strategy != "parallel-managed" || resp.Scan.Workers != 4 {
		t.Errorf("scan section = %+v", resp.Scan)
	}

	bp := simsearch.New(data, simsearch.Options{Algorithm: simsearch.BitParallel, Workers: 4, CacheSize: 8})
	tb := httptest.NewServer(New(bp, data))
	defer tb.Close()
	var bresp statsResponse
	getJSON(t, tb.URL+"/stats", &bresp)
	if bresp.Scan != nil {
		t.Errorf("BitParallel server reports scan section %+v", bresp.Scan)
	}
	wantBytes := 0
	for _, s := range data {
		wantBytes += len(s)
	}
	if c := bresp.Cascade; c == nil || c.ArenaBytes != wantBytes || c.Buckets == 0 {
		t.Errorf("BitParallel server's cascade section = %+v, want %d arena bytes", c, wantBytes)
	}
}

// TestStatsScanSectionNonBitParallel checks that the default scan rung
// reports its rung with no pool size, and non-scan engines omit the section
// entirely.
func TestStatsScanSectionNonBitParallel(t *testing.T) {
	ts := httptest.NewServer(New(core.NewSequential(data), data))
	defer ts.Close()
	var resp statsResponse
	getJSON(t, ts.URL+"/stats", &resp)
	if resp.Scan == nil || resp.Scan.Strategy != "simple-types" || resp.Scan.Workers != 0 {
		t.Errorf("scan section = %+v", resp.Scan)
	}

	tt := httptest.NewServer(New(core.NewTrie(data, true), data))
	defer tt.Close()
	var tresp statsResponse
	getJSON(t, tt.URL+"/stats", &tresp)
	if tresp.Scan != nil {
		t.Errorf("trie engine reports scan section %+v", tresp.Scan)
	}
}
