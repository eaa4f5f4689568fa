package plan

import (
	"math"
	"slices"
	"testing"

	"graphbench/internal/metrics"
)

// gridRecords builds one synthetic calibration entry's records (giraph
// PageRank on twitter): one record per cluster size, OK where ok[i],
// with total time value(m) and iteration count 10+i.
func gridRecords(ms []int, ok []bool, value func(m float64) float64) []metrics.Record {
	var recs []metrics.Record
	for i, m := range ms {
		status := "OOM"
		if ok[i] {
			status = "OK"
		}
		recs = append(recs, metrics.Record{
			System: "G", Dataset: "twitter", Workload: "pagerank", Machines: m,
			Status: status, Total: value(float64(m)), Iters: 10 + i,
		})
	}
	return recs
}

var gridSizes = []int{16, 32, 64, 128}

func calibrated(t *testing.T, recs []metrics.Record) *calibEntry {
	t.Helper()
	e := calibrate(recs).entries["giraph|pagerank|social"]
	if e == nil {
		t.Fatal("no entry for giraph|pagerank|social")
	}
	return e
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func TestFitRecoversCoefficients(t *testing.T) {
	want := curve{a: 1000, b: 5, c: 0.25}
	e := calibrated(t, gridRecords(gridSizes, []bool{true, true, true, true}, func(m float64) float64 {
		return want.a/m + want.b + want.c*m
	}))
	if !near(e.Time.a, want.a) || !near(e.Time.b, want.b) || !near(e.Time.c, want.c) {
		t.Fatalf("fit %+v, want %+v", e.Time, want)
	}
	if e.Iters != 10 {
		t.Fatalf("Iters %d, want the first OK cell's 10", e.Iters)
	}
}

func TestFitTwoPointsHasNoLinearTerm(t *testing.T) {
	// OK at 32 and 128 only; the line through them is a/m + b.
	e := calibrated(t, gridRecords(gridSizes, []bool{false, true, false, true}, func(m float64) float64 {
		return 6400/m + 3 + 0.05*m
	}))
	if e.Time.c != 0 {
		t.Fatalf("two OK points fitted c = %v", e.Time.c)
	}
	for _, m := range []int{32, 128} {
		if got, want := e.Time.at(m), e.At[m].TimeSec; !near(got, want) {
			t.Errorf("curve at %d = %v, want the cell's %v", m, got, want)
		}
	}
	if e.Iters != 11 {
		t.Fatalf("Iters %d, want the first OK cell's 11", e.Iters)
	}
}

func TestFitOnePointIsConstant(t *testing.T) {
	e := calibrated(t, gridRecords(gridSizes, []bool{false, false, true, false}, func(m float64) float64 {
		return 7 * m
	}))
	if want := (curve{b: 7 * 64}); e.Time != want {
		t.Fatalf("one OK point fitted %+v, want %+v", e.Time, want)
	}
}

func TestFitFailedOnlyIsZero(t *testing.T) {
	e := calibrated(t, gridRecords(gridSizes, []bool{false, false, false, false}, func(m float64) float64 {
		return 100 + m
	}))
	for _, c := range []curve{e.Time, e.CPU, e.MemMax, e.MemTot, e.Net} {
		if c != (curve{}) {
			t.Fatalf("failed-only cells fitted %+v, want the zero curve", c)
		}
	}
	if e.Iters != 0 || len(e.At) != len(gridSizes) || e.At[16].Status != "OOM" {
		t.Fatalf("failed-only entry: Iters %d, cells %+v", e.Iters, e.At)
	}
}

func TestFitNegativeTermFallsBack(t *testing.T) {
	// The unconstrained fit is exact with a = -800; a/m + b cannot fit
	// values growing with m without a negative a either, so the best
	// admissible fit is the least-squares b + c·m.
	value := func(m float64) float64 { return -800/m + 100 + 2*m }
	e := calibrated(t, gridRecords(gridSizes, []bool{true, true, true, true}, value))
	if e.Time.a != 0 || e.Time.c <= 0 {
		t.Fatalf("fit %+v, want a = 0 and c > 0", e.Time)
	}
	// Least squares over {1, m}: the residuals are orthogonal to both
	// columns.
	var sum, sumM float64
	for _, m := range gridSizes {
		r := value(float64(m)) - e.Time.at(m)
		sum += r
		sumM += r * float64(m)
	}
	if math.Abs(sum) > 1e-9 || math.Abs(sumM) > 1e-6 {
		t.Fatalf("fit %+v is not the least-squares b + c·m (residual sums %v, %v)", e.Time, sum, sumM)
	}
}

// TestModelSystemsFromGrid: the candidate systems come from the
// embedded grid — every registered system on PageRank, the nine
// main-grid systems elsewhere — in sorted order.
func TestModelSystemsFromGrid(t *testing.T) {
	for _, w := range workloads {
		keys := modelSystems(w)
		want := 9
		if w == "pagerank" {
			want = len(systemKeys)
		}
		if len(keys) != want || !slices.IsSorted(keys) {
			t.Errorf("%s: systems %v, want %d sorted keys", w, keys, want)
		}
	}
}
