package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, and 0 when there is nothing to divide by (a count that did
// not move in a short smoke pass).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile4 is the i-th quartile cut (i = 1, 2, 3) of xs by the method of
// Python's statistics.quantiles(xs, n=4): the driver computes spreads with
// that function, so the benchmark's own IQR must agree with it to the digit.
func quantile4(xs []float64, i int) float64 {
	s := sorted(xs)
	m := len(s)
	switch m {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	j := i * (m + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := i*(m+1) - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

func median(xs []float64) float64 { return quantile4(xs, 2) }

// iqr is the distance between the first and the third quartile.
func iqr(xs []float64) float64 { return quantile4(xs, 3) - quantile4(xs, 1) }

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending slice: the smallest value with at least p of the samples at or
// below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	r := int(math.Ceil(p*float64(len(asc)))) - 1
	if r < 0 {
		r = 0
	}
	return asc[r]
}
