package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a high percentile
// before the benchmark reports it: a p99 read off fewer samples is the
// maximum in disguise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs
// and whether it may be reported: at least minBeyond samples must lie
// strictly past its rank. The median (q = 0.5) of any non-empty sample
// set is always reportable. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, false
	}
	return s[rank-1], true
}

// median is the 0.5 percentile; 0 for an empty sample set.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// mean returns the arithmetic mean; 0 for an empty sample set.
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
