// Package filter implements the pre-filters that let both engines skip edit
// distance computations entirely.
//
// The paper uses the length filter (§3.2, eq. 5) in the sequential engine and
// proposes frequency-vector filtering as future work (§6, after Rheinländer
// et al.'s PETER index, which stores frequency vectors in its tree nodes).
// Every filter in this package is *sound*: it never rejects a string whose
// edit distance to the query is within the threshold. The integration tests
// verify this on random workloads.
package filter

// Filter is a sound pre-filter for the string similarity search problem:
// Keep(q, x, k) == false implies ed(q, x) > k.
type Filter interface {
	// Keep reports whether x may be within edit distance k of q.
	Keep(q, x string, k int) bool
	// Name identifies the filter in benchmark output.
	Name() string
}

// Length is the paper's eq. 5 filter: if |len(q)-len(x)| > k the strings
// cannot be within distance k, because every edit changes the length by at
// most one.
type Length struct{}

// Keep implements Filter.
func (Length) Keep(q, x string, k int) bool {
	d := len(q) - len(x)
	if d < 0 {
		d = -d
	}
	return d <= k
}

// Name implements Filter.
func (Length) Name() string { return "length" }

// Vector is a frequency vector: the number of occurrences of each tracked
// symbol in a string (paper §6 "Frequency vectors"; for DNA the symbols
// A, C, G, N, T; for city names the vowels A, E, I, O, U).
type Vector []int

// Frequency filters by comparing per-symbol occurrence counts. A single edit
// operation changes each symbol count by at most one and the total L1
// difference of the two vectors by at most 2 (a replacement decrements one
// count and increments another). Therefore
//
//	sum_c max(0, count_q(c) - count_x(c))  >  k   =>   ed(q, x) > k
//
// and symmetrically for x over q; the larger of the two one-sided sums is a
// lower bound on the edit distance restricted to the tracked symbols.
type Frequency struct {
	symbols [256]int // symbol -> tracked index+1; 0 = untracked
	n       int
	name    string
}

// NewFrequency builds a frequency filter tracking the given symbols.
// The paper's suggested alphabets are available as DNAFrequency and
// VowelFrequency.
func NewFrequency(name string, symbols string) *Frequency {
	f := &Frequency{name: name}
	for i := 0; i < len(symbols); i++ {
		c := symbols[i]
		if f.symbols[c] == 0 {
			f.n++
			f.symbols[c] = f.n
		}
	}
	return f
}

// DNAFrequency tracks the DNA alphabet A, C, G, N, T (paper §6).
func DNAFrequency() *Frequency { return NewFrequency("freq-dna", "ACGNT") }

// VowelFrequency tracks the vowels A, E, I, O, U in both cases
// (paper §6 suggests A, E, I, O, U for the city names).
func VowelFrequency() *Frequency { return NewFrequency("freq-vowel", "AEIOUaeiou") }

// VectorOf computes the frequency vector of s under this filter's tracked
// symbols. The result has one entry per tracked symbol.
func (f *Frequency) VectorOf(s string) Vector {
	v := make(Vector, f.n)
	for i := 0; i < len(s); i++ {
		if idx := f.symbols[s[i]]; idx != 0 {
			v[idx-1]++
		}
	}
	return v
}

// Bound returns a lower bound on ed(q, x) given their frequency vectors:
// max over directions of the summed positive count surplus.
func (f *Frequency) Bound(vq, vx Vector) int {
	var over, under int
	for i := range vq {
		d := vq[i] - vx[i]
		if d > 0 {
			over += d
		} else {
			under -= d
		}
	}
	if over > under {
		return over
	}
	return under
}

// Keep implements Filter. It delegates to a compiled query so the bound is
// exercised through the same code path a scan uses; hot loops that test one
// query against many candidates should call CompileQuery once instead, which
// avoids rebuilding the query vector per candidate.
func (f *Frequency) Keep(q, x string, k int) bool {
	return f.CompileQuery(q).Keep(x, k)
}

// FrequencyQuery is the query-side compiled form of a Frequency filter: the
// query's vector is computed once, and Keep then does O(len(x) + symbols)
// work per candidate with no allocation. A FrequencyQuery is not safe for
// concurrent use; compile one per goroutine.
type FrequencyQuery struct {
	f       *Frequency
	vq      Vector
	scratch Vector // candidate vector, zeroed after each Keep
}

// CompileQuery builds the query's frequency vector once and returns a keeper
// over candidate strings.
func (f *Frequency) CompileQuery(q string) *FrequencyQuery {
	return &FrequencyQuery{f: f, vq: f.VectorOf(q), scratch: make(Vector, f.n)}
}

// Keep reports whether x may be within edit distance k of the compiled query.
func (fq *FrequencyQuery) Keep(x string, k int) bool {
	return fq.Bound(x) <= k
}

// Bound returns the frequency-vector lower bound on ed(q, x) for the
// compiled query, reusing the internal scratch vector.
func (fq *FrequencyQuery) Bound(x string) int {
	vx := fq.scratch
	for i := 0; i < len(x); i++ {
		if idx := fq.f.symbols[x[i]]; idx != 0 {
			vx[idx-1]++
		}
	}
	b := fq.f.Bound(fq.vq, vx)
	for i := range vx {
		vx[i] = 0
	}
	return b
}

// Name implements Filter.
func (f *Frequency) Name() string { return f.name }

// NumSymbols returns the number of tracked symbols (the VectorOf length).
func (f *Frequency) NumSymbols() int { return f.n }

// Symbols returns the tracked alphabet in tracking order. Rebuilding a
// Frequency from Name() and Symbols() yields an equivalent filter, which
// index serialization relies on.
func (f *Frequency) Symbols() string {
	out := make([]byte, f.n)
	for c := 0; c < 256; c++ {
		if idx := f.symbols[c]; idx != 0 {
			out[idx-1] = byte(c)
		}
	}
	return string(out)
}

// Histogram filters on the full 256-symbol byte histogram. A replacement
// changes two counts by one each; an insert or delete changes one count by
// one. Hence ed(q, x) >= max(over, under) where over/under are the one-sided
// L1 surpluses, the same bound as Frequency but over all bytes. It is the
// strongest count-based filter and the most expensive to evaluate.
type Histogram struct{}

// Keep implements Filter. It delegates to a compiled query; hot loops that
// test one query against many candidates should call CompileQuery once
// instead, which avoids rebuilding the query's 256-entry histogram (and
// walking all 256 counters) per candidate.
func (h Histogram) Keep(q, x string, k int) bool {
	return h.CompileQuery(q).Keep(x, k)
}

// HistogramQuery is the query-side compiled form of the Histogram filter.
// The query's histogram is built once; Keep then does O(len(x)) work per
// candidate — it streams the candidate through the histogram counting
// symbols common with the query, rather than materializing a second
// histogram and diffing all 256 buckets. A HistogramQuery is not safe for
// concurrent use; compile one per goroutine.
type HistogramQuery struct {
	hq   [256]int
	hx   [256]int // candidate counts, restored to zero after each Keep
	lenQ int
}

// CompileQuery builds the query's byte histogram once and returns a keeper
// over candidate strings.
func (Histogram) CompileQuery(q string) *HistogramQuery {
	hq := &HistogramQuery{lenQ: len(q)}
	for i := 0; i < len(q); i++ {
		hq.hq[q[i]]++
	}
	return hq
}

// Keep reports whether x may be within edit distance k of the compiled query.
func (hq *HistogramQuery) Keep(x string, k int) bool {
	return hq.Bound(x) <= k
}

// Bound returns the histogram lower bound on ed(q, x): with
// common = sum_c min(count_q(c), count_x(c)), the one-sided surpluses are
// over = len(q) - common and under = len(x) - common, identical to the full
// 256-bucket diff but touching only the candidate's bytes.
func (hq *HistogramQuery) Bound(x string) int {
	common := 0
	for i := 0; i < len(x); i++ {
		c := x[i]
		hq.hx[c]++
		if hq.hx[c] <= hq.hq[c] {
			common++
		}
	}
	for i := 0; i < len(x); i++ {
		hq.hx[x[i]] = 0
	}
	over := hq.lenQ - common
	under := len(x) - common
	if over > under {
		return over
	}
	return under
}

// Name implements Filter.
func (Histogram) Name() string { return "histogram" }

// Chain applies several filters in order and keeps a string only if every
// filter keeps it. Chains stay sound because each member is sound.
type Chain struct {
	Filters []Filter
}

// Keep implements Filter.
func (c Chain) Keep(q, x string, k int) bool {
	for _, f := range c.Filters {
		if !f.Keep(q, x, k) {
			return false
		}
	}
	return true
}

// Name implements Filter.
func (c Chain) Name() string {
	name := "chain("
	for i, f := range c.Filters {
		if i > 0 {
			name += ","
		}
		name += f.Name()
	}
	return name + ")"
}
