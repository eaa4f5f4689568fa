package main

import (
	"strings"
	"time"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/par"
	"graphbench/internal/sim"
)

// The grid runs at graphbench's default seed, so its modeled records
// can be held to a digest taken from a reference build. The grid is
// fixed by definition: the benchmark seed does not change it, and its
// cells run in graphbench's order, whose tail the timings include.
const (
	gridSeed = 1
	// goldenGridDigest is digest() of the grid's results in
	// canonical order at datasets.DefaultScale and gridSeed.
	goldenGridDigest = "3d679440a07ae5fe7d670e9a261f0baff0725418e2bca580246a87f386b921be"
	gridOK           = 568
	gridFailed       = 128
)

var gridDatasets = []datasets.Name{datasets.Twitter, datasets.UK, datasets.WRN}

// gridCells is the main grid exactly as `graphbench -grid` builds it:
// three datasets × six workloads × four cluster sizes × the main-grid
// systems, plus every PageRank-only variant on PageRank.
func gridCells() []core.Cell {
	var cells []core.Cell
	for _, name := range gridDatasets {
		for _, kind := range engine.ExtendedKinds() {
			systems := core.MainGridSystems()
			if kind == engine.PageRank {
				systems = core.Systems()
			}
			for _, m := range core.ClusterSizes {
				for _, s := range systems {
					cells = append(cells, core.Cell{System: s, Dataset: name, Kind: kind, Machines: m})
				}
			}
		}
	}
	return cells
}

// checkGrid holds one pass's results (in canonical cell order) to the
// golden digest and the expected OK/failed split.
func checkGrid(results []*engine.Result, checks *Checks) {
	ok := 0
	for _, res := range results {
		if res.Status == sim.OK {
			ok++
		}
	}
	if ok != gridOK || len(results)-ok != gridFailed {
		checks.Failf("grid: %d OK / %d failed, want %d / %d", ok, len(results)-ok, gridOK, gridFailed)
	}
	if got := digest(results); got != goldenGridDigest {
		checks.Failf("grid: modeled-record digest %s, want %s", got, goldenGridDigest)
	}
}

func runGrid(cfg Config) (*Outcome, error) {
	out := newOutcome()
	r, setups, err := setUp(func() (*core.Runner, error) {
		r := core.NewRunner(datasets.DefaultScale, gridSeed)
		for _, name := range gridDatasets {
			if _, err := r.TryDataset(name); err != nil {
				return nil, err
			}
		}
		r.Pool()
		return r, nil
	}, (*core.Runner).Close)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	cells := gridCells()
	// account counts a pass's cells and checks its results, off the
	// clock.
	account := func(results []*engine.Result, counts *Counts) {
		for range results {
			counts.Add(true)
		}
		checkGrid(results, out.Checks)
	}

	// One untimed pass lets lazy first-use work and scratch pools
	// settle before the clock starts.
	account(r.RunGrid(cells), out.Counts["warmup"])

	untraced := &Phase{}
	for untraced.Elapsed < cfg.phase() {
		untraced.begin()
		results := r.RunGrid(cells)
		d := untraced.end()
		account(results, out.Counts["timed"])
		untraced.window(d, len(cells))
		untraced.Latencies = append(untraced.Latencies, ms(d))
	}
	if out.EndToEnd, err = endToEndReport(setups, untraced); err != nil {
		return nil, err
	}
	if !cfg.Trace {
		return out, nil
	}

	t := NewTracer()
	if err := traceFixtures(t, out.PerLayer, r, gridDatasets, datasets.Options{Scale: datasets.DefaultScale, Seed: gridSeed}, out.Checks); err != nil {
		return nil, err
	}
	// The traced pass is RunGrid unrolled: the same cells on the same
	// pool at the same per-run shard count, each run under a span.
	r.Shards = r.MatrixShards()
	var passSpans []int64
	traced := &Phase{}
	var passes [][]*engine.Result
	for traced.Elapsed < cfg.phase() || len(passes) < 2 {
		op := t.NewOp()
		traced.begin()
		root := t.Begin("par.Map", 0, op)
		results := par.Map(r.Pool(), len(cells), func(i int) *engine.Result {
			c := cells[i]
			sp := t.Begin(enginePackage(c.System.Key)+".run", root.ID(), op)
			defer sp.End()
			res, err := r.TryRun(c.System, c.Dataset, c.Kind, c.Machines)
			if err != nil {
				out.Checks.Failf("grid: %s/%s/%s/%d: %v", c.System.Key, c.Dataset, c.Kind, c.Machines, err)
				return &engine.Result{}
			}
			return res
		})
		root.End()
		d := traced.end()
		account(results, out.Counts["timed"])
		traced.window(d, len(cells))
		traced.Latencies = append(traced.Latencies, ms(d))
		passSpans = append(passSpans, root.ID())
		passes = append(passes, results)
	}

	gridLayers(out.PerLayer, t.Spans(), passSpans, passes, r.Pool().Workers())
	if err := governedSample(cfg, cfg.phase(), t, out); err != nil {
		return nil, err
	}
	commonLayers(out.PerLayer, untraced, traced, len(t.Spans()))
	return out, writeSpans(t, cfg)
}

// gridLayers derives the grid's per-layer metrics from the traced
// passes: per-cell run percentiles, busy time per engine package, pool
// utilization and tail, and the passes' exact engine counts. Times and
// counts are per pass.
func gridLayers(r Report, spans []Span, passSpans []int64, passes [][]*engine.Result, workers int) {
	isPass := make(map[int64]bool, len(passSpans))
	for _, id := range passSpans {
		isPass[id] = true
	}
	self := SelfTimes(spans)
	n := float64(len(passes))
	var cellMs []float64
	var busy, wall time.Duration
	type window struct{ lastStart, firstIdleAfter, end int64 }
	windows := make(map[int64]*window)
	for _, s := range spans {
		if isPass[s.ID] {
			wall += s.Dur()
			w := windows[s.ID]
			if w == nil {
				w = &window{}
				windows[s.ID] = w
			}
			w.end = s.End
		}
	}
	for _, s := range spans {
		if !isPass[s.Parent] {
			continue
		}
		cellMs = append(cellMs, ms(s.Dur()))
		busy += self[s.ID]
		pkg, _ := strings.CutSuffix(s.Name, ".run")
		r[pkg+".busy_ms"] += ms(self[s.ID])
		if w := windows[s.Parent]; s.Start > w.lastStart {
			w.lastStart = s.Start
		}
	}
	// A worker goes idle for good once the last cell has started and
	// its own cell ends; from the first such moment to the pass's end
	// the slowest cells set the grid's finish.
	for _, s := range spans {
		if w := windows[s.Parent]; isPass[s.Parent] && s.End >= w.lastStart && (w.firstIdleAfter == 0 || s.End < w.firstIdleAfter) {
			w.firstIdleAfter = s.End
		}
	}
	var tail time.Duration
	for _, w := range windows {
		tail += time.Duration(w.end - w.firstIdleAfter)
	}
	r["par.tail_ms"] = ms(tail) / n
	r["par.utilization"] = float64(busy) / (float64(wall) * float64(workers))
	r["core.run_p50_ms"] = median(cellMs)
	if p99, ok := percentile(cellMs, 0.99); ok {
		r["core.run_p99_ms"] = p99
	}
	for _, results := range passes {
		resultCounts(r, results)
	}
	perPass(r, n)
	if av := r["engine.active_vertices"]; av > 0 {
		r["core.ns_per_active_vertex"] = float64(busy) / n / av
	}
}
