// Package bench is the experiment harness: it builds the paper's workloads,
// times engines the way §5.2 prescribes (wall-clock time of the result
// calculation only — never CPU time, and excluding data loading and index
// construction), and renders the appendix tables.
package bench

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/dataset"
	"simsearch/internal/pool"
)

// Paper-scale constants (Table I).
const (
	paperCityCount = 400000
	paperDNACount  = 750000
)

// paperQueryCounts are the §5.2 batch sizes.
var paperQueryCounts = []int{100, 500, 1000}

// cityKs and dnaKs are the Table I thresholds.
var (
	cityKs = []int{0, 1, 2, 3}
	dnaKs  = []int{0, 4, 8, 16}
)

// threadCounts is the §5.3.6 sweep.
var threadCounts = []int{4, 8, 16, 32}

// Config scales the experiments. Scale 1.0 reproduces the paper's sizes
// (400k/750k strings, 100/500/1000 queries); the default 0.1 keeps the whole
// suite laptop-sized while preserving every relative comparison.
type Config struct {
	Scale     float64
	CitySeed  int64
	DNASeed   int64
	QuerySeed int64
}

// DefaultConfig returns the default scale (0.1), overridable with the
// PAPER_SCALE environment variable.
func DefaultConfig() Config {
	cfg := Config{Scale: 0.1, CitySeed: 20130322, DNASeed: 20130323, QuerySeed: 20130324}
	if v := os.Getenv("PAPER_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			cfg.Scale = f
		}
	}
	return cfg
}

// scaled applies the scale with a floor of 1.
func (c Config) scaled(n int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// QueryCounts returns the scaled §5.2 batch sizes.
func (c Config) QueryCounts() []int {
	out := make([]int, len(paperQueryCounts))
	for i, n := range paperQueryCounts {
		out[i] = c.scaled(n)
	}
	return out
}

// Workload is one dataset plus its query batches.
type Workload struct {
	Name    string
	Data    []string
	Queries []core.Query // the largest batch; prefixes give smaller batches
	Counts  []int        // scaled {100, 500, 1000}
	Ks      []int
}

// Batch returns the first n queries.
func (w Workload) Batch(n int) []core.Query {
	if n > len(w.Queries) {
		n = len(w.Queries)
	}
	return w.Queries[:n]
}

// buildQueries perturbs dataset strings and cycles through the thresholds so
// every batch exercises every k, as the competition workloads did.
func buildQueries(data []string, n int, ks []int, maxEdits int, seed int64) []core.Query {
	texts := dataset.Queries(data, n, maxEdits, seed)
	qs := make([]core.Query, n)
	for i, t := range texts {
		qs[i] = core.Query{Text: t, K: ks[i%len(ks)]}
	}
	return qs
}

// CityWorkload builds the scaled city-names workload.
func CityWorkload(cfg Config) Workload {
	data := dataset.Cities(cfg.scaled(paperCityCount), cfg.CitySeed)
	counts := cfg.QueryCounts()
	maxQ := counts[len(counts)-1]
	return Workload{
		Name:    "city",
		Data:    data,
		Queries: buildQueries(data, maxQ, cityKs, 3, cfg.QuerySeed),
		Counts:  counts,
		Ks:      cityKs,
	}
}

// DNAWorkload builds the scaled DNA-reads workload.
func DNAWorkload(cfg Config) Workload {
	data := dataset.DNAReads(cfg.scaled(paperDNACount), cfg.DNASeed)
	counts := cfg.QueryCounts()
	maxQ := counts[len(counts)-1]
	return Workload{
		Name:    "dna",
		Data:    data,
		Queries: buildQueries(data, maxQ, dnaKs, 8, cfg.QuerySeed+1),
		Counts:  counts,
		Ks:      dnaKs,
	}
}

// measureBatch times answering qs with s (optionally scheduled by runner),
// returning the wall-clock duration. This is the paper's §5.2 measurement:
// actual execution time of the calculation phase only.
func measureBatch(s core.Searcher, qs []core.Query, runner pool.Runner) time.Duration {
	start := time.Now()
	core.SearchBatch(s, qs, runner)
	return time.Since(start)
}

// Cell is one measured (or extrapolated) table entry.
type Cell struct {
	Elapsed   time.Duration
	Estimated bool // true when extrapolated from a subsample (paper: "≈ half day")
}

// String renders the cell in the appendix style.
func (c Cell) String() string {
	s := formatDuration(c.Elapsed)
	if c.Estimated {
		return "≈ " + s
	}
	return s
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.2f h", d.Hours())
	case d >= time.Second:
		return fmt.Sprintf("%.2f sec", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2f ms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%d µs", d.Microseconds())
	}
}

// Row is one labelled table row.
type Row struct {
	Label string
	Cells []Cell
}

// Table is a rendered experiment, mirroring the appendix layout.
type Table struct {
	Title   string
	Columns []string // e.g. "100 queries"
	Rows    []Row
}

// newTable prepares a table with "N queries" column heads.
func newTable(title string, counts []int) *Table {
	t := &Table{Title: title}
	for _, n := range counts {
		t.Columns = append(t.Columns, fmt.Sprintf("%d queries", n))
	}
	return t
}

// AddRow appends a labelled row.
func (t *Table) AddRow(label string, cells []Cell) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintln(w, t.Title)
	width := 0
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	if width < 12 {
		width = 12
	}
	fmt.Fprintf(w, "%-*s", width+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%16s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", width+2, r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(w, "%16s", c.String())
		}
		fmt.Fprintln(w)
	}
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// Best returns the smallest total (row sum) row label, used to pick the
// optimal thread count like §5.3.6/§5.4.3 do.
func (t *Table) Best() string {
	best, bestTotal := "", time.Duration(1<<62)
	for _, r := range t.Rows {
		var total time.Duration
		for _, c := range r.Cells {
			total += c.Elapsed
		}
		if total < bestTotal {
			best, bestTotal = r.Label, total
		}
	}
	return best
}
