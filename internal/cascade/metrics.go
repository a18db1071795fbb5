package cascade

import (
	"sync/atomic"

	"simsearch/internal/metrics"
)

// RegisterMetrics exposes the engine's cumulative counters on reg. The
// per-stage survivor counts make the cascade observable in production: a
// stage whose survivors track its input has stopped pruning.
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("simsearch_cascade_queries_total",
		"queries answered by the cascade engine",
		func() float64 { return float64(e.queries.Load()) })
	stage := func(name string, c *atomic.Uint64) {
		reg.CounterFunc("simsearch_cascade_stage_survivors_total",
			"candidates surviving each cascade stage, cumulative across queries",
			func() float64 { return float64(c.Load()) }, metrics.L("stage", name))
	}
	// The one signature stage feeds both filter labels: dashboards and the
	// fixed benchmark read them by name, and their ratio reads 1.
	stage("length", &e.candidates)
	stage("frequency", &e.survivors)
	stage("qgram", &e.survivors)
	stage("verify", &e.matches)
}
