package core

import (
	"context"

	"simsearch/internal/cascade"
	"simsearch/internal/metrics"
)

// Cascade wraps the filter-cascade engine (paper §6 future work assembled
// into one serving path): length bucket, block summaries, one signature word
// per string and the band kernel over a byte arena ordered by those words —
// the word holds the five symbol counts on DNA datasets and occurrence bits
// on everything else.
type Cascade struct {
	eng *cascade.Engine
}

// NewCascade builds a cascade searcher over data. Options select the
// ablation variant (cascade.WithoutFrequency) and counters.
func NewCascade(data []string, opts ...cascade.Option) *Cascade {
	return &Cascade{eng: cascade.New(data, opts...)}
}

// Search implements Searcher.
func (c *Cascade) Search(q Query) []Match {
	return convertScan(c.eng.Search(q.Text, q.K))
}

// SearchContext implements ContextSearcher: the slot sweep polls ctx at a
// bounded stride and abandons the query promptly after cancellation.
func (c *Cascade) SearchContext(ctx context.Context, q Query) ([]Match, error) {
	ms, err := c.eng.SearchContext(ctx, q.Text, q.K)
	if err != nil {
		return nil, err
	}
	return convertScan(ms), nil
}

// Name implements Searcher; it carries the signature kind ("cascade/dna" or
// "cascade/bytes") and any ablation suffix.
func (c *Cascade) Name() string { return c.eng.Name() }

// Len implements Searcher.
func (c *Cascade) Len() int { return c.eng.Len() }

// CascadeEngine exposes the underlying engine for observability surfaces
// (per-stage survivor counts, arena layout).
func (c *Cascade) CascadeEngine() *cascade.Engine { return c.eng }

// RegisterMetrics exposes the cascade's per-stage survivor counters on reg
// (picked up by the httpapi decorator-chain walk).
func (c *Cascade) RegisterMetrics(reg *metrics.Registry) { c.eng.RegisterMetrics(reg) }
