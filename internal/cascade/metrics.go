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
	// "block" is what the block summaries leave of the length window;
	// "frequency" is the first word on either kind of corpus; "qgram" is the
	// dinucleotide word behind it on reads and reads the same elsewhere.
	stage("length", &e.candidates)
	stage("block", &e.swept)
	stage("frequency", &e.passed)
	stage("qgram", &e.survivors)
	stage("verify", &e.matches)
}
