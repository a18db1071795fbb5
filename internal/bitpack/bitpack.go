// Package bitpack implements the paper's §6 "Dictionary Compression" future
// work: the five-symbol DNA alphabet (A, C, G, N, T) is packed at three bits
// per symbol, cutting memory ~62% and letting the edit-distance kernel
// compare packed codes instead of bytes.
package bitpack

import (
	"context"
	"fmt"
)

// Code values for the DNA alphabet. Code 0 is reserved so that a zero word
// never aliases a valid symbol run.
const (
	codeA = 1 + iota
	codeC
	codeG
	codeN
	codeT
)

var encodeTable = [256]byte{'A': codeA, 'C': codeC, 'G': codeG, 'N': codeN, 'T': codeT}
var decodeTable = [8]byte{codeA: 'A', codeC: 'C', codeG: 'G', codeN: 'N', codeT: 'T'}

// Seq is a 3-bit-packed DNA sequence.
type Seq struct {
	words []uint64 // 21 symbols per word, 63 bits used
	n     int
}

// symbolsPerWord is how many 3-bit codes fit one 64-bit word.
const symbolsPerWord = 21

// Pack encodes s, which must consist solely of A, C, G, N, T. It returns an
// error naming the first invalid byte otherwise.
func Pack(s string) (Seq, error) {
	seq := Seq{n: len(s), words: make([]uint64, (len(s)+symbolsPerWord-1)/symbolsPerWord)}
	for i := 0; i < len(s); i++ {
		code := encodeTable[s[i]]
		if code == 0 {
			return Seq{}, fmt.Errorf("bitpack: invalid DNA symbol %q at position %d", s[i], i)
		}
		seq.words[i/symbolsPerWord] |= uint64(code) << uint(3*(i%symbolsPerWord))
	}
	return seq, nil
}

// MustPack is Pack for known-valid input; it panics on invalid symbols.
func MustPack(s string) Seq {
	seq, err := Pack(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// Len returns the number of symbols.
func (s Seq) Len() int { return s.n }

// At returns the i-th symbol code (1..5).
func (s Seq) At(i int) byte {
	return byte(s.words[i/symbolsPerWord] >> uint(3*(i%symbolsPerWord)) & 7)
}

// String decodes the sequence back to its textual form.
func (s Seq) String() string {
	out := make([]byte, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = decodeTable[s.At(i)]
	}
	return string(out)
}

// PackedBytes returns the in-memory size of the packed representation in
// bytes (for the compression-ratio report).
func (s Seq) PackedBytes() int { return len(s.words) * 8 }

// Distance computes the unweighted edit distance between two packed
// sequences with the two-row dynamic program, comparing 3-bit codes.
func Distance(a, b Seq) int {
	if a.n < b.n {
		a, b = b, a
	}
	if b.n == 0 {
		return a.n
	}
	prev := make([]int, b.n+1)
	curr := make([]int, b.n+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= a.n; i++ {
		curr[0] = i
		ca := a.At(i - 1)
		for j := 1; j <= b.n; j++ {
			if ca == b.At(j-1) {
				curr[j] = prev[j-1]
			} else {
				v := prev[j]
				if curr[j-1] < v {
					v = curr[j-1]
				}
				if prev[j-1] < v {
					v = prev[j-1]
				}
				curr[j] = v + 1
			}
		}
		prev, curr = curr, prev
	}
	return prev[b.n]
}

// Scratch holds the two dynamic-program rows reused across
// BoundedDistanceScratch calls, so a scan over N sequences performs O(1)
// allocations instead of 2N row allocations. A Scratch is not safe for
// concurrent use; give each goroutine its own.
type Scratch struct {
	prev, curr []int
}

// rows returns the two DP rows grown to at least n entries.
func (s *Scratch) rows(n int) ([]int, []int) {
	if cap(s.prev) < n {
		s.prev = make([]int, n)
		s.curr = make([]int, n)
	}
	return s.prev[:n], s.curr[:n]
}

// BoundedDistance computes the distance if it is at most k, with the same
// length filter, band and early-abort rules as edit.BoundedDistance, on
// packed sequences. It allocates fresh DP rows per call; scans should use
// BoundedDistanceScratch.
func BoundedDistance(a, b Seq, k int) (int, bool) {
	var s Scratch
	return BoundedDistanceScratch(a, b, k, &s)
}

// BoundedDistanceScratch is BoundedDistance with caller-owned row storage.
func BoundedDistanceScratch(a, b Seq, k int, scratch *Scratch) (int, bool) {
	if k < 0 {
		return 0, false
	}
	d := a.n - b.n
	if d < 0 {
		d = -d
	}
	if d > k {
		return 0, false
	}
	if k == 0 {
		if a.n != b.n {
			return 0, false
		}
		for i, w := range a.words {
			if w != b.words[i] {
				return 0, false
			}
		}
		return 0, true
	}
	if a.n == 0 {
		return b.n, true
	}
	if b.n == 0 {
		return a.n, true
	}
	if b.n > a.n {
		a, b = b, a
	}
	la, lb := a.n, b.n
	const inf = int(^uint(0) >> 2)
	prev, curr := scratch.rows(lb + 1)
	for j := 0; j <= lb && j <= k; j++ {
		prev[j] = j
	}
	for j := k + 1; j <= lb; j++ {
		prev[j] = inf
	}
	delta := la - lb
	for i := 1; i <= la; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > lb {
			hi = lb
		}
		if lo > hi {
			return 0, false
		}
		if lo > 1 {
			curr[lo-1] = inf
		} else {
			curr[0] = i
		}
		ca := a.At(i - 1)
		rowMin := inf
		for j := lo; j <= hi; j++ {
			var v int
			if ca == b.At(j-1) {
				v = prev[j-1]
			} else {
				up := inf
				if j < i+k {
					up = prev[j]
				}
				left := inf
				if j > lo {
					left = curr[j-1]
				} else if lo == 1 {
					left = curr[0]
				}
				if left < up {
					up = left
				}
				if prev[j-1] < up {
					up = prev[j-1]
				}
				v = up + 1
			}
			curr[j] = v
			if v < rowMin {
				rowMin = v
			}
			if j == i-delta && v > k {
				return 0, false
			}
		}
		if hi < lb {
			curr[hi+1] = inf
		}
		if rowMin > k {
			return 0, false
		}
		prev, curr = curr, prev
	}
	if prev[lb] > k {
		return 0, false
	}
	return prev[lb], true
}

// Corpus is a packed dataset supporting similarity scans without unpacking.
type Corpus struct {
	seqs []Seq
	raw  int // total unpacked bytes, for the compression report
}

// NewCorpus packs every string in data. All strings must be valid DNA.
func NewCorpus(data []string) (*Corpus, error) {
	c := &Corpus{seqs: make([]Seq, len(data))}
	for i, s := range data {
		seq, err := Pack(s)
		if err != nil {
			return nil, fmt.Errorf("string %d: %w", i, err)
		}
		c.seqs[i] = seq
		c.raw += len(s)
	}
	return c, nil
}

// Len returns the number of sequences.
func (c *Corpus) Len() int { return len(c.seqs) }

// CompressionRatio returns packedBytes / rawBytes.
func (c *Corpus) CompressionRatio() float64 {
	if c.raw == 0 {
		return 1
	}
	packed := 0
	for _, s := range c.seqs {
		packed += s.PackedBytes()
	}
	return float64(packed) / float64(c.raw)
}

// Match is one scan result.
type Match struct {
	ID   int32
	Dist int
}

// ctxStride is how many per-sequence comparisons may run between context
// polls, mirroring internal/scan's cancellation stride.
const ctxStride = 1024

// Search scans the packed corpus for sequences within edit distance k of q.
func (c *Corpus) Search(q string, k int) ([]Match, error) {
	return c.SearchContext(context.Background(), q, k)
}

// SearchContext is Search honoring cancellation: it polls ctx every
// ctxStride comparisons and returns ctx.Err() with the partial results
// dropped. DP row storage is allocated once per call and reused across all
// sequences, and the result slice is grown from a small preallocation
// instead of nil-appending.
func (c *Corpus) SearchContext(ctx context.Context, q string, k int) ([]Match, error) {
	qs, err := Pack(q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var scratch Scratch
	out := make([]Match, 0, 16)
	for i, s := range c.seqs {
		if i%ctxStride == ctxStride-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if d, ok := BoundedDistanceScratch(qs, s, k, &scratch); ok {
			out = append(out, Match{ID: int32(i), Dist: d})
		}
	}
	return out, nil
}
