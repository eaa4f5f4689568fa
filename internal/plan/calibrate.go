package plan

import (
	"bytes"
	_ "embed"
	"fmt"
	"math"
	"slices"
	"sync"

	"graphbench/internal/metrics"
)

// gridLog is the run log of the main experiment grid at
// datasets.DefaultScale and seed 1, exactly as
//
//	GRAPHBENCH_MEM_BUDGET= go run ./cmd/graphbench -grid -log internal/plan/grid.jsonl
//
// writes it. It is the calibration's only source; a core test fails
// when it drifts from the engines.
//
//go:embed grid.jsonl
var gridLog []byte

// calibration is the cost model built from gridLog on first use.
var calibration = sync.OnceValue(func() *model {
	recs, err := metrics.ReadLog(bytes.NewReader(gridLog))
	if err != nil {
		panic("plan: embedded grid log: " + err.Error())
	}
	return calibrate(recs)
})

// systemKeys maps the grid log's system labels (the paper's figure
// abbreviations) to the planner's system keys. It mirrors the Label
// and Key of every core.Systems() entry; plan sits below core, so an
// external test (package plan_test) holds the two together.
var systemKeys = map[string]string{
	"BB":       "blogel-b",
	"BV":       "blogel-v",
	"G":        "giraph",
	"GL-A-A-T": "gl-a-a-t",
	"GL-A-R-T": "gl-a-r-t",
	"GL-S-A-I": "gl-s-a-i",
	"GL-S-A-T": "gl-s-a-t",
	"GL-S-R-I": "gl-s-r-i",
	"GL-S-R-T": "gl-s-r-t",
	"HD":       "hadoop",
	"HL":       "haloop",
	"S":        "graphx",
	"FG":       "gelly",
}

// model is the calibrated cost model.
type model struct {
	entries map[string]*calibEntry // by "systemKey|workload|class"
	systems map[string][]string    // sorted system keys per workload
}

// calibrate builds the cost model from grid records. Records of a
// class reference dataset become the exact cells of their (system,
// workload, class) entry; the entry's curves are fitted over its OK
// cells, and its Iters is the iteration count of its first OK cell in
// record order. Records of other datasets are ignored.
func calibrate(recs []metrics.Record) *model {
	classOf := make(map[string]string, len(classRef))
	for class, name := range classRef {
		classOf[string(name)] = class
	}
	m := &model{entries: make(map[string]*calibEntry), systems: make(map[string][]string)}
	type points struct{ ms, time, memMax, memTot, net, cpu []float64 }
	pts := make(map[string]*points)
	for _, rec := range recs {
		class, ok := classOf[rec.Dataset]
		if !ok {
			continue
		}
		sys, ok := systemKeys[rec.System]
		if !ok {
			panic(fmt.Sprintf("plan: grid log names unknown system %q", rec.System))
		}
		key := sys + "|" + rec.Workload + "|" + class
		e := m.entries[key]
		if e == nil {
			e = &calibEntry{At: make(map[int]metrics.Resource)}
			m.entries[key] = e
			pts[key] = &points{}
			if !slices.Contains(m.systems[rec.Workload], sys) {
				m.systems[rec.Workload] = append(m.systems[rec.Workload], sys)
			}
		}
		res := rec.Resource()
		e.At[rec.Machines] = res
		if !res.OK() {
			continue
		}
		p := pts[key]
		if len(p.ms) == 0 {
			e.Iters = rec.Iters
		}
		p.ms = append(p.ms, float64(rec.Machines))
		p.time = append(p.time, res.TimeSec)
		p.memMax = append(p.memMax, float64(res.MemMaxBytes))
		p.memTot = append(p.memTot, float64(res.MemTotalBytes))
		p.net = append(p.net, float64(res.NetBytes))
		p.cpu = append(p.cpu, res.CPUSec)
	}
	for key, e := range m.entries {
		p := pts[key]
		e.Time = fit(p.ms, p.time)
		e.MemMax = fit(p.ms, p.memMax)
		e.MemTot = fit(p.ms, p.memTot)
		e.Net = fit(p.ms, p.net)
		e.CPU = fit(p.ms, p.cpu)
	}
	for _, keys := range m.systems {
		slices.Sort(keys)
	}
	return m
}

// fit returns the least-squares curve a/m + b + c·m through the points
// (ms[i], vs[i]) with a ≥ 0 and c ≥ 0: the lowest-residual fit among
// the term sets {a,b,c}, {a,b}, {b,c} and {b} whose a and c come out
// non-negative. The c term needs three or more points; one point fixes
// b alone, and no points give the zero curve.
func fit(ms, vs []float64) curve {
	if len(ms) == 0 {
		return curve{}
	}
	// Columns of the design matrix: 1/m, 1, m.
	cols := [3][]float64{make([]float64, len(ms)), make([]float64, len(ms)), ms}
	for i, m := range ms {
		cols[0][i] = 1 / m
		cols[1][i] = 1
	}
	terms := [][]int{{0, 1}, {1}}
	if len(ms) >= 3 {
		terms = [][]int{{0, 1, 2}, {0, 1}, {1, 2}, {1}}
	}
	var best curve
	bestRSS := math.Inf(1)
	for _, t := range terms {
		x := make([][]float64, len(t))
		for j, col := range t {
			x[j] = cols[col]
		}
		coef, rss, ok := lsq(x, vs)
		if !ok {
			continue
		}
		var c [3]float64
		for j, col := range t {
			c[col] = coef[j]
		}
		if c[0] < 0 || c[2] < 0 || rss >= bestRSS {
			continue
		}
		best, bestRSS = curve{c[0], c[1], c[2]}, rss
	}
	return best
}

// lsq solves the least-squares problem min ‖Σ coef[j]·cols[j] − y‖ by
// modified Gram–Schmidt QR and returns the coefficients and the
// residual sum of squares; ok is false when the columns are linearly
// dependent.
func lsq(cols [][]float64, y []float64) (coef []float64, rss float64, ok bool) {
	k := len(cols)
	q := make([][]float64, k)
	r := make([][]float64, k)
	res := append([]float64(nil), y...)
	qty := make([]float64, k)
	for j := range cols {
		q[j] = append([]float64(nil), cols[j]...)
		r[j] = make([]float64, k)
		for i := 0; i < j; i++ {
			r[i][j] = dot(q[i], q[j])
			axpy(-r[i][j], q[i], q[j])
		}
		r[j][j] = math.Sqrt(dot(q[j], q[j]))
		if r[j][j] == 0 {
			return nil, 0, false
		}
		for i := range q[j] {
			q[j][i] /= r[j][j]
		}
		qty[j] = dot(q[j], res)
		axpy(-qty[j], q[j], res)
	}
	coef = make([]float64, k)
	for j := k - 1; j >= 0; j-- {
		s := qty[j]
		for i := j + 1; i < k; i++ {
			s -= r[j][i] * coef[i]
		}
		coef[j] = s / r[j][j]
	}
	return coef, dot(res, res), true
}

func dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// axpy sets y += a·x.
func axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}
