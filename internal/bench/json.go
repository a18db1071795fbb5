package bench

import (
	"encoding/json"
	"os"
	"runtime"
)

// Record is one machine-readable measurement in a BENCH_*.json report: one
// (experiment, engine, dataset, k) cell with its per-query cost and the
// number of kernel comparisons the engine performed. Records exist so the
// perf trajectory is diffable across PRs instead of buried in table text.
type Record struct {
	Experiment  string  `json:"experiment"`
	Engine      string  `json:"engine"`
	Dataset     string  `json:"dataset"`
	K           int     `json:"k"`
	Queries     int     `json:"queries"`
	NsPerQuery  int64   `json:"ns_per_query"`
	Comparisons uint64  `json:"comparisons"`
	Speedup     float64 `json:"speedup_vs_baseline,omitempty"`

	// Stages is the cascade's per-stage survivor funnel for this cell (only
	// set by the cascade ablation). Each count is the number of candidates
	// alive after that stage; the prune rate of a stage is one minus the
	// ratio of consecutive counts.
	Stages *StageCounts `json:"stages,omitempty"`
}

// StageCounts is the cascade survivor funnel: candidates that passed the
// length bucket, then those in blocks the summary words let the sweep into,
// then the first signature word, then the whole signature stage (equal to
// verify-kernel invocations), then final matches.
type StageCounts struct {
	Candidates uint64 `json:"length_survivors"`
	Swept      uint64 `json:"block_survivors"`
	Passed     uint64 `json:"first_word_survivors"`
	Survivors  uint64 `json:"signature_survivors"`
	Matches    uint64 `json:"matches"`
}

// Report is the top-level BENCH_*.json payload. GOMAXPROCS is recorded
// because the intra-query parallel numbers are meaningless without the core
// count they ran on.
type Report struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	Scale      float64  `json:"scale"`
	Strings    int      `json:"strings,omitempty"`
	Records    []Record `json:"records"`
}

// NewReport starts a report stamped with the runtime's parallelism.
func NewReport(scale float64) *Report {
	return &Report{GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: scale}
}

// Add appends records.
func (r *Report) Add(recs ...Record) { r.Records = append(r.Records, recs...) }

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}
