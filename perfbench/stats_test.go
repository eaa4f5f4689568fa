package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1},
		{2, 0.5, 1},
		{5, 0.5, 3},
		{10, 0.5, 5},
		{1000, 0.99, 990},
		{2000, 0.99, 1980},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if !ok || got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, true", tc.n, tc.q, got, ok, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// p99 of n samples has n - ceil(0.99n) samples beyond it: 10 at
	// n = 1000, 9 at n = 999.
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with only 9 beyond it")
	}
	if _, ok := percentile(seq(1000), 0.99); !ok {
		t.Error("p99 of 1000 samples withheld with 10 beyond it")
	}
	if _, ok := percentile(seq(50), 0.99); ok {
		t.Error("p99 of 50 samples reported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("median of no samples reported")
	}
	if got := median(seq(3)); got != 2 {
		t.Errorf("median(1..3) = %v", got)
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}
